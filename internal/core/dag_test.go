package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestDiamondDataReuse exercises §3.2's data-reuse claim: "If one data set
// requires two different operations, HAMR only needs to load data once and
// connect the loader to two flowlets." One loader fans out to two map
// flowlets whose results meet in a single sink.
func TestDiamondDataReuse(t *testing.T) {
	g := NewGraph("diamond")
	sink := NewCollectSink()
	chunks, _ := wordChunks(6, 10)
	ld, _ := g.AddLoader("load", &sliceLoader{chunks: chunks})
	left, _ := g.AddMap("lines", countLines{})
	right, _ := g.AddMap("words", wordSplit{})
	aggL, _ := g.AddPartialReduce("linecount", sumPartial{})
	aggR, _ := g.AddPartialReduce("wordcount", sumPartial{})
	sk, _ := g.AddSink("out", sink)
	for _, e := range [][2]int{{ld, left}, {ld, right}, {left, aggL}, {right, aggR}, {aggL, sk}, {aggR, sk}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	nodes, cleanup := newTestCluster(t, 3, Config{Workers: 2})
	defer cleanup()
	res, err := Run(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]int64{}
	for _, kv := range sink.Pairs() {
		m[kv.Key] += kv.Value.(int64)
	}
	if m["__lines__"] != 60 {
		t.Errorf("line count = %d, want 60", m["__lines__"])
	}
	var words int64
	for k, v := range m {
		if k != "__lines__" {
			words += v
		}
	}
	if words != 60*5 {
		t.Errorf("word count = %d, want 300", words)
	}
	// The loader ran its splits exactly once despite two consumers.
	if got := res.Metrics.Get("loader.splits"); got != 6 {
		t.Errorf("loader.splits = %d, want 6 (data loaded once)", got)
	}
}

type countLines struct{}

func (countLines) Map(kv KV, ctx Context) error {
	return ctx.Emit(KV{Key: "__lines__", Value: int64(1)})
}

// TestMultiUpstreamReduce checks the completion protocol with a reduce fed
// by two distinct upstream flowlets: it must wait for BOTH to complete on
// every node.
func TestMultiUpstreamReduce(t *testing.T) {
	g := NewGraph("join")
	sink := NewCollectSink()
	ld, _ := g.AddLoader("load", &sliceLoader{chunks: [][]string{{"k1 a", "k2 b"}, {"k1 c"}}})
	tagA, _ := g.AddMap("tagA", tagMapper{tag: "A"})
	tagB, _ := g.AddMap("tagB", tagMapper{tag: "B"})
	join, _ := g.AddReduce("join", joinReduce{})
	sk, _ := g.AddSink("out", sink)
	for _, e := range [][2]int{{ld, tagA}, {ld, tagB}, {tagA, join}, {tagB, join}, {join, sk}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	nodes, cleanup := newTestCluster(t, 3, Config{Workers: 2})
	defer cleanup()
	if _, err := Run(g, nodes, nil); err != nil {
		t.Fatal(err)
	}
	got := sink.Map()
	// Every key saw values from both branches.
	if got["k1"].(int64) != 4 { // 2 records x 2 tags
		t.Errorf("k1 joined %v values, want 4", got["k1"])
	}
	if got["k2"].(int64) != 2 {
		t.Errorf("k2 joined %v values, want 2", got["k2"])
	}
}

type tagMapper struct{ tag string }

func (m tagMapper) Map(kv KV, ctx Context) error {
	f := kv.Value.(string)
	key := f[:2]
	return ctx.Emit(KV{Key: key, Value: m.tag + f[3:]})
}

type joinReduce struct{}

func (joinReduce) Reduce(key string, values []any, ctx Context) error {
	return ctx.Emit(KV{Key: key, Value: int64(len(values))})
}

// gatedSink holds every write until open is closed.
type gatedSink struct {
	open  chan struct{}
	wrote atomic.Int64
}

func (s *gatedSink) Write(node int, kv KV) error {
	<-s.open
	s.wrote.Add(1)
	return nil
}

func (s *gatedSink) Close(node int) error { return nil }

// flowEngaged reports whether any job on the nodes has had a producer stall
// or a bin gated by flow control so far.
func flowEngaged(nodes []*NodeRuntime) bool {
	for _, rt := range nodes {
		rt.mu.Lock()
		for _, jn := range rt.jobs {
			if jn.totalStalls() > 0 || jn.mFlowGated.Value() > 0 {
				rt.mu.Unlock()
				return true
			}
		}
		rt.mu.Unlock()
	}
	return false
}

// TestFlowControlEngagesUnderPressure drives a fast loader into a consumer
// that takes nothing until flow control has pushed back, through a tiny
// window, and checks that (a) the job completes, (b) flow control actually
// engaged (loader stalls or gated bins), and (c) nothing was lost. The map
// flowlets run on node 0 and the sink on node 1, so every sink bin is a
// remote bin whose ack the closed gate withholds: node 0's loader, chaining
// both maps inline, must stall on the window.
func TestFlowControlEngagesUnderPressure(t *testing.T) {
	const records = 3000
	var lines []string
	for i := 0; i < records; i++ {
		lines = append(lines, fmt.Sprintf("r%d", i))
	}
	on := func(node int) EdgeOption {
		return WithPartitioner(func(string, int) int { return node })
	}
	g := NewGraph("pressure")
	sink := &gatedSink{open: make(chan struct{})}
	ld, _ := g.AddLoader("load", &sliceLoader{chunks: [][]string{lines[:1500], lines[1500:]}})
	mp, _ := g.AddMap("fwd", forwardMapper{})
	slow, _ := g.AddMap("slowzone", passThrough{})
	sk, _ := g.AddSink("out", sink)
	g.Connect(ld, mp, on(0))
	g.Connect(mp, slow, on(0))
	g.Connect(slow, sk, WithRouting(RouteShuffle), on(1))
	nodes, cleanup := newTestCluster(t, 2, Config{
		Workers:           2,
		BinSize:           16,
		FlowControlWindow: 2,
	})
	defer cleanup()
	done := make(chan error, 1)
	var res *JobResult
	go func() {
		var err error
		res, err = Run(g, nodes, nil)
		done <- err
	}()
	deadline := time.After(60 * time.Second)
	for !flowEngaged(nodes) {
		select {
		case err := <-done:
			t.Fatalf("job ended (%v) with the sink still closed", err)
		case <-deadline:
			t.Fatal("flow control never pushed back on a closed sink")
		case <-time.After(100 * time.Microsecond):
		}
	}
	close(sink.open)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-deadline:
		t.Fatal("flow-controlled job hung")
	}
	if sink.wrote.Load() != records {
		t.Fatalf("sink saw %d records, want %d", sink.wrote.Load(), records)
	}
	if res.Stalls == 0 && res.Gated == 0 {
		t.Errorf("flow control never engaged (stalls=%d gated=%d)", res.Stalls, res.Gated)
	}
}

type forwardMapper struct{}

func (forwardMapper) Map(kv KV, ctx Context) error {
	return ctx.Emit(KV{Key: kv.Value.(string), Value: int64(1)})
}

// TestReduceIntoReduce chains two reduce flowlets — two barriers in one
// graph — which Hadoop would need two jobs for (§3.2).
func TestReduceIntoReduce(t *testing.T) {
	g := NewGraph("double-reduce")
	sink := NewCollectSink()
	chunks, want := wordChunks(6, 15)
	ld, _ := g.AddLoader("load", &sliceLoader{chunks: chunks})
	mp, _ := g.AddMap("split", wordSplit{})
	r1, _ := g.AddReduce("count", sumReduce{})
	// Second reduce: group counts by their magnitude bucket.
	r2, _ := g.AddReduce("bucket", bucketReduce{})
	sk, _ := g.AddSink("out", sink)
	for _, e := range [][2]int{{ld, mp}, {mp, r1}, {r1, r2}, {r2, sk}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	nodes, cleanup := newTestCluster(t, 3, Config{Workers: 2})
	defer cleanup()
	if _, err := Run(g, nodes, nil); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, kv := range sink.Pairs() {
		total += kv.Value.(int64)
	}
	if int(total) != len(want) {
		t.Errorf("bucketed %d words, want %d", total, len(want))
	}
}

type bucketReduce struct{}

func (bucketReduce) Reduce(key string, values []any, ctx Context) error {
	// key = word, values = [count]; emit (bucket, 1) where bucket is the
	// count's decade.
	for _, v := range values {
		bucket := fmt.Sprintf("decade-%d", v.(int64)/10)
		if err := ctx.Emit(KV{Key: bucket, Value: int64(1)}); err != nil {
			return err
		}
	}
	return nil
}

type passThrough struct{}

func (passThrough) Map(kv KV, ctx Context) error { return ctx.Emit(kv) }
