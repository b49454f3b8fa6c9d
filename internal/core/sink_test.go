package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/vtime"
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

// chargeCounter is a clock that counts the charges paid through it.
type chargeCounter struct{ n atomic.Int64 }

func (c *chargeCounter) Charge(int, vtime.Resource, time.Duration) { c.n.Add(1) }

// A file sink on a modeled disk writes whole buffers: N small records make
// at most ⌈bytes / 64 KiB⌉ + 1 byte charges, not one per record.
func TestFileSinkBuffersDiskCharges(t *testing.T) {
	reg := metrics.NewRegistry()
	disk := storage.NewCostDisk(storage.NewMemDisk(0), storage.CostModel{WriteBytesPerSec: 120 << 20}, reg)
	var clk chargeCounter
	disk.SetClock(&clk, 0)
	s := NewFileSink(func(node int) (io.WriteCloser, error) { return disk.Create("part") }, nil)
	const records = 20000
	for i := range records {
		if err := s.Write(0, KV{Key: fmt.Sprintf("k%05d", i), Value: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(0); err != nil {
		t.Fatal(err)
	}
	written := reg.Counter("disk.write.bytes").Value()
	if size, _ := disk.Size("part"); size != written || written < records*8 {
		t.Fatalf("wrote %d bytes in a %d-byte file for %d records", written, size, records)
	}
	limit := (written+fileSinkBuf-1)/fileSinkBuf + 1
	if got := clk.n.Load(); got > limit {
		t.Errorf("%d records of %d bytes made %d disk charges, want at most %d", records, written, got, limit)
	}
}

// failingWriter fails every Write and records its Close.
type failingWriter struct{ closed bool }

func (w *failingWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("disk gone") }
func (w *failingWriter) Close() error                { w.closed = true; return nil }

// The buffered lines a Close writes can fail; the failure is Close's, and
// the writer is closed all the same.
func TestFileSinkCloseReturnsTheWriteError(t *testing.T) {
	w := &failingWriter{}
	s := NewFileSink(func(node int) (io.WriteCloser, error) { return w, nil }, nil)
	if err := s.Write(0, KV{Key: "a", Value: int64(1)}); err != nil {
		t.Fatalf("a buffered write failed: %v", err)
	}
	if err := s.Close(0); err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Errorf("Close = %v, want the write's error", err)
	}
	if !w.closed {
		t.Error("writer left open after its last write failed")
	}
}

type discardCloser struct{}

func (discardCloser) Write(p []byte) (int, error) { return len(p), nil }
func (discardCloser) Close() error                { return nil }

// Once a node's buffer exists, writing a pair allocates nothing: the line
// is appended in place, not built as a string first.
func TestFileSinkAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("a measurement, not a race check: the detector allocates on its own")
	}
	s := NewFileSink(func(node int) (io.WriteCloser, error) { return discardCloser{}, nil }, nil)
	for _, kv := range []KV{{Key: "key", Value: int64(123456)}, {Key: "key", Value: "a string value"}} {
		// Fill the buffer past one write first, so it has grown to its size.
		for range fileSinkBuf / 8 {
			if err := s.Write(0, kv); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(10000, func() { _ = s.Write(0, kv) }); got != 0 {
			t.Errorf("Write(%T pair) = %v allocs, want 0", kv.Value, got)
		}
	}
}

// AppendLine must print what fmt's "%s\t%v\n" prints.
func TestAppendLineMatchesFmt(t *testing.T) {
	type point struct{ X, Y int }
	for _, kv := range []KV{
		{Key: "k", Value: "plain"},
		{Key: "", Value: ""},
		{Key: "tab\tin key", Value: "tab\tand\nnewline in value"},
		{Key: "k", Value: 0},
		{Key: "k", Value: -17},
		{Key: "k", Value: math.MaxInt64},
		{Key: "k", Value: int64(0)},
		{Key: "k", Value: int64(-1)},
		{Key: "k", Value: int64(math.MaxInt64)},
		{Key: "k", Value: int64(math.MinInt64)},
		{Key: "k", Value: 0.0},
		{Key: "k", Value: math.Copysign(0, -1)},
		{Key: "k", Value: 0.1},
		{Key: "k", Value: -2.5},
		{Key: "k", Value: 123456789.0},
		{Key: "k", Value: 1e20},
		{Key: "k", Value: 1e21},
		{Key: "k", Value: 1e-7},
		{Key: "k", Value: math.MaxFloat64},
		{Key: "k", Value: math.SmallestNonzeroFloat64},
		{Key: "k", Value: math.NaN()},
		{Key: "k", Value: math.Inf(1)},
		{Key: "k", Value: math.Inf(-1)},
		// Everything else takes the %v fallback.
		{Key: "k", Value: nil},
		{Key: "k", Value: true},
		{Key: "k", Value: float32(0.1)},
		{Key: "k", Value: uint8(200)},
		{Key: "k", Value: []float64{1, 2.5}},
		{Key: "k", Value: []string{"a", "b"}},
		{Key: "k", Value: point{1, -2}},
		{Key: "k", Value: fmt.Errorf("an error")},
	} {
		want := fmt.Sprintf("%s\t%v\n", kv.Key, kv.Value)
		// A dirty prefix shows an append that overwrites.
		if got := string(AppendLine([]byte("prefix|"), kv)); got != "prefix|"+want {
			t.Errorf("AppendLine(%q, %#v) = %q, want %q", kv.Key, kv.Value, got, want)
		}
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
