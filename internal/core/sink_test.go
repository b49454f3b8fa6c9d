package core

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
)

func TestCollectSink(t *testing.T) {
	s := NewCollectSink()
	var wg sync.WaitGroup
	for n := 0; n < 4; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				s.Write(n, KV{Key: fmt.Sprintf("k%d", i), Value: int64(n)})
			}
		}(n)
	}
	wg.Wait()
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	sorted := s.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Key > sorted[i].Key {
			t.Fatal("Sorted not sorted")
		}
	}
	m := s.Map()
	if len(m) != 25 {
		t.Fatalf("Map has %d keys", len(m))
	}
	if err := s.Close(0); err != nil {
		t.Fatal(err)
	}
}

// TestCollectSinkConcurrentWriters drives the sink the way a job does —
// every node writing serially, all nodes at once — with readers running
// beside them, and checks nothing is lost, duplicated or reordered within
// a node. Run under -race it checks the per-node locking.
func TestCollectSinkConcurrentWriters(t *testing.T) {
	const nodes, perNode = 8, 10000 // several chunks per node
	s := NewCollectSink()
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				s.Write(n, KV{Key: fmt.Sprintf("n%d", n), Value: i})
				if i%1000 == 0 {
					if got := s.Len(); got < i {
						t.Errorf("Len = %d after node %d wrote %d", got, n, i)
					}
					_ = s.Pairs()
				}
			}
		}(n)
	}
	wg.Wait()
	if s.Len() != nodes*perNode {
		t.Fatalf("Len = %d, want %d", s.Len(), nodes*perNode)
	}
	next := make(map[string]int)
	for _, kv := range s.Pairs() {
		if kv.Value.(int) != next[kv.Key] {
			t.Fatalf("%s: value %d where %d was written next", kv.Key, kv.Value, next[kv.Key])
		}
		next[kv.Key]++
	}
	for n := 0; n < nodes; n++ {
		if got := next[fmt.Sprintf("n%d", n)]; got != perNode {
			t.Errorf("node %d: %d pairs collected, want %d", n, got, perNode)
		}
	}
	// Map keeps the last value written for a key.
	if m := s.Map(); len(m) != nodes || m["n3"] != perNode-1 {
		t.Errorf("Map = %d keys, n3 -> %v", len(m), m["n3"])
	}
}

func TestCountSink(t *testing.T) {
	s := NewCountSink()
	for i := 0; i < 10; i++ {
		s.Write(0, KV{Key: "k", Value: int64(i)})
	}
	if s.Count() != 10 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Bytes() <= 0 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
}

type closableBuffer struct {
	bytes.Buffer
	closed bool
}

func (b *closableBuffer) Close() error {
	b.closed = true
	return nil
}

func TestFileSink(t *testing.T) {
	bufs := map[int]*closableBuffer{}
	s := NewFileSink(func(node int) (io.WriteCloser, error) {
		b := &closableBuffer{}
		bufs[node] = b
		return b, nil
	}, nil)
	s.Write(0, KV{Key: "a", Value: int64(1)})
	s.Write(1, KV{Key: "b", Value: "x"})
	s.Write(0, KV{Key: "c", Value: int64(2)})
	if err := s.Close(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(1); err != nil {
		t.Fatal(err)
	}
	if got := bufs[0].String(); got != "a\t1\nc\t2\n" {
		t.Fatalf("node 0 file = %q", got)
	}
	if got := bufs[1].String(); got != "b\tx\n" {
		t.Fatalf("node 1 file = %q", got)
	}
	if !bufs[0].closed || !bufs[1].closed {
		t.Fatal("writers not closed")
	}
	// Closing a node that never wrote is a no-op.
	if err := s.Close(9); err != nil {
		t.Fatal(err)
	}
}

func TestFileSinkCustomFormat(t *testing.T) {
	var buf closableBuffer
	s := NewFileSink(
		func(node int) (io.WriteCloser, error) { return &buf, nil },
		func(kv KV) string { return fmt.Sprintf("%s=%v;", kv.Key, kv.Value) },
	)
	s.Write(0, KV{Key: "x", Value: int64(7)})
	s.Close(0)
	if buf.String() != "x=7;" {
		t.Fatalf("formatted = %q", buf.String())
	}
}

func TestFileSinkOpenError(t *testing.T) {
	s := NewFileSink(func(node int) (io.WriteCloser, error) {
		return nil, fmt.Errorf("disk gone")
	}, nil)
	if err := s.Write(0, KV{Key: "a"}); err == nil {
		t.Fatal("write with failing opener succeeded")
	}
}

func TestFuncSink(t *testing.T) {
	var got []KV
	s := FuncSink(func(node int, kv KV) error {
		got = append(got, kv)
		return nil
	})
	s.Write(0, KV{Key: "k"})
	if err := s.Close(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d", len(got))
	}
}
