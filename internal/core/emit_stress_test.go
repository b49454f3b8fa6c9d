package core

import (
	"fmt"
	"sync"
	"testing"
)

// These tests guard the sharded binBuffer rewrite: N workers emitting
// interleaved keys on one edge must lose and duplicate nothing. They are
// run under -race in CI.

// TestBinBufferConcurrentMultiset hammers one binBuffer from many
// goroutines and checks that the union of sealed and drained bins is
// exactly the input multiset.
func TestBinBufferConcurrentMultiset(t *testing.T) {
	const (
		workers = 8
		perW    = 5000
		nodes   = 4
	)
	bins := newBinList(16)
	bins.Reserve(nodes)
	buf := newBinBuffer(nodes, bins, 1<<30)
	var mu sync.Mutex
	got := make(map[string]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				kv := KV{Key: fmt.Sprintf("w%d-k%d", w, i), Value: int64(i)}
				// Interleave destinations so every slot sees every worker.
				if bin := buf.add((w+i)%nodes, kv, kv.Size()); bin != nil {
					mu.Lock()
					for _, s := range bin.KVs {
						got[s.Key]++
					}
					mu.Unlock()
					bin.release() // recycled under the other workers' feet
				}
			}
		}()
	}
	wg.Wait()
	for dest := 0; dest < nodes; dest++ {
		if bin := buf.take(dest); bin != nil {
			for _, s := range bin.KVs {
				got[s.Key]++
			}
			bin.release()
		}
	}
	if len(got) != workers*perW {
		t.Fatalf("distinct keys = %d, want %d", len(got), workers*perW)
	}
	for k, n := range got {
		if n != 1 {
			t.Fatalf("key %q seen %d times", k, n)
		}
	}
	if s := buf.list.Stats(); s.Home() != nil || s.Free > nodes {
		t.Fatalf("list %+v: want every slab home and at most %d free", s, nodes)
	}
}

// countingSink collects (key -> total) under a mutex.
type countingSink struct {
	mu     sync.Mutex
	counts map[string]int64
}

func (s *countingSink) Write(node int, kv KV) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counts == nil {
		s.counts = make(map[string]int64)
	}
	s.counts[kv.Key] += kv.Value.(int64)
	return nil
}

func (s *countingSink) Close(node int) error { return nil }

// TestConcurrentEmitStress drives the full emit→bin→shuffle→fold path
// with many concurrent producers: every loader split emits the same key
// space interleaved, a partial reduce folds the counts, and the sink
// total must equal the input multiset exactly.
func TestConcurrentEmitStress(t *testing.T) {
	const (
		numNodes = 3
		splits   = 24
		keys     = 97
		perSplit = 500
	)
	cfg := Config{
		Workers:           8,
		BinSize:           32,
		LoaderConcurrency: 8,
	}
	nodes, cleanup := newTestCluster(t, numNodes, cfg)
	defer cleanup()

	chunks := make([][]string, splits)
	for s := range chunks {
		lines := make([]string, perSplit)
		for i := range lines {
			lines[i] = fmt.Sprintf("key%03d", (s+i)%keys)
		}
		chunks[s] = lines
	}

	g := NewGraph("emit-stress")
	sink := &countingSink{}
	ld, err := g.AddLoader("load", &sliceLoader{chunks: chunks})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := g.AddMap("tag", keyMapper{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := g.AddPartialReduce("sum", sumPartial{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := g.AddSink("out", sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int{{ld, mp}, {mp, pr}, {pr, sk}} {
		if err := g.Connect(c[0], c[1]); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := Run(g, nodes, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	var total int64
	for i := 0; i < keys; i++ {
		total += sink.counts[fmt.Sprintf("key%03d", i)]
	}
	if total != int64(splits*perSplit) {
		t.Fatalf("total count = %d, want %d", total, splits*perSplit)
	}
	// Every line of every split lands on exactly one key; recompute the
	// expected multiset and compare per key.
	expect := make(map[string]int64)
	for _, c := range chunks {
		for _, l := range c {
			expect[l]++
		}
	}
	for k, n := range expect {
		if sink.counts[k] != n {
			t.Fatalf("key %q count = %d, want %d", k, sink.counts[k], n)
		}
	}
	// bins.dropped is a runtime-teardown counter, accounted on the node
	// registries rather than the job's own deltas.
	var dropped int64
	for _, rt := range nodes {
		dropped += rt.Metrics().Snapshot().Get("bins.dropped")
	}
	if dropped != 0 {
		t.Fatalf("bins.dropped = %d on a clean run", dropped)
	}
}

// keyMapper re-emits each line as (line, 1).
type keyMapper struct{}

func (keyMapper) Map(kv KV, ctx Context) error {
	return ctx.Emit(KV{Key: kv.Value.(string), Value: int64(1)})
}
