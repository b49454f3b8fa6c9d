package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/transport"
)

// newTestCluster builds n node runtimes over an in-memory network with no
// modeled costs.
func newTestCluster(t testing.TB, n int, cfg Config) ([]*NodeRuntime, func()) {
	t.Helper()
	return newClusterOn(t, NewTestNetwork(), n, cfg, substrate.Handle{})
}

// newClusterOn builds n node runtimes over net, which the returned cleanup
// closes after them; each fills sub with a registry of its own.
func newClusterOn(t testing.TB, net transport.Network, n int, cfg Config, sub substrate.Handle) ([]*NodeRuntime, func()) {
	t.Helper()
	nodes := make([]*NodeRuntime, n)
	for i := 0; i < n; i++ {
		disk := storage.NewMemDisk(0)
		rt, err := NewNodeRuntime(i, cfg, sub, net, disk, nil)
		if err != nil {
			t.Fatalf("NewNodeRuntime(%d): %v", i, err)
		}
		nodes[i] = rt
	}
	return nodes, func() {
		for _, rt := range nodes {
			rt.Close()
		}
		net.Close()
	}
}

// NewTestNetwork returns an in-memory network with zero modeled cost.
func NewTestNetwork() *transport.InMemNetwork {
	return transport.NewInMemNetwork(transport.CostModel{}, nil)
}

// sliceLoader plans one split per input slice and emits each element as a
// ("", line) pair.
type sliceLoader struct {
	chunks [][]string
}

func (l *sliceLoader) Plan(env *Env) ([]Split, error) {
	splits := make([]Split, len(l.chunks))
	for i, c := range l.chunks {
		splits[i] = Split{Payload: c, PreferredNode: -1, Size: int64(len(c))}
	}
	return splits, nil
}

func (l *sliceLoader) Load(sp Split, ctx Context) error {
	for _, line := range sp.Payload.([]string) {
		if err := ctx.Emit(KV{Key: "", Value: line}); err != nil {
			return err
		}
	}
	return nil
}

// wordSplit maps lines to (word, 1).
type wordSplit struct{}

func (wordSplit) Map(kv KV, ctx Context) error {
	for _, w := range strings.Fields(kv.Value.(string)) {
		if err := ctx.Emit(KV{Key: w, Value: int64(1)}); err != nil {
			return err
		}
	}
	return nil
}

// sumPartial folds int64 counts.
type sumPartial struct{}

func (sumPartial) Update(key string, state, value any) (any, error) {
	if state == nil {
		return value.(int64), nil
	}
	return state.(int64) + value.(int64), nil
}

func (sumPartial) Finish(key string, state any, ctx Context) error {
	return ctx.Emit(KV{Key: key, Value: state.(int64)})
}

// sumReduce sums grouped int64 values.
type sumReduce struct{}

func (sumReduce) Reduce(key string, values []any, ctx Context) error {
	var total int64
	for _, v := range values {
		total += v.(int64)
	}
	return ctx.Emit(KV{Key: key, Value: total})
}

func buildWordCount(t testing.TB, usePartial bool, chunks [][]string) (*Graph, *CollectSink) {
	t.Helper()
	g := NewGraph("wordcount")
	sink := NewCollectSink()
	ld, err := g.AddLoader("load", &sliceLoader{chunks: chunks})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := g.AddMap("split", wordSplit{})
	if err != nil {
		t.Fatal(err)
	}
	var agg int
	if usePartial {
		agg, err = g.AddPartialReduce("count", sumPartial{})
	} else {
		agg, err = g.AddReduce("count", sumReduce{})
	}
	if err != nil {
		t.Fatal(err)
	}
	sk, err := g.AddSink("out", sink)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{ld, mp}, {mp, agg}, {agg, sk}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g, sink
}

func wordChunks(nChunks, linesPer int) ([][]string, map[string]int64) {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	want := map[string]int64{}
	chunks := make([][]string, nChunks)
	for c := 0; c < nChunks; c++ {
		for l := 0; l < linesPer; l++ {
			var sb strings.Builder
			for w := 0; w < 5; w++ {
				word := words[(c*31+l*7+w)%len(words)]
				want[word]++
				sb.WriteString(word)
				sb.WriteByte(' ')
			}
			chunks[c] = append(chunks[c], sb.String())
		}
	}
	return chunks, want
}

func runWordCount(t *testing.T, numNodes int, cfg Config, usePartial bool) {
	t.Helper()
	chunks, want := wordChunks(12, 40)
	g, sink := buildWordCount(t, usePartial, chunks)
	nodes, cleanup := newTestCluster(t, numNodes, cfg)
	defer cleanup()
	res, err := Run(g, nodes, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := map[string]int64{}
	for _, kv := range sink.Pairs() {
		got[kv.Key] += kv.Value.(int64)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d distinct words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%q] = %d, want %d", w, got[w], n)
		}
	}
	if res.Duration <= 0 {
		t.Errorf("non-positive duration %v", res.Duration)
	}
}

func TestWordCountPartialReduceSingleNode(t *testing.T) {
	runWordCount(t, 1, Config{Workers: 2}, true)
}

func TestWordCountPartialReduceMultiNode(t *testing.T) {
	runWordCount(t, 4, Config{Workers: 2}, true)
}

func TestWordCountReduceMultiNode(t *testing.T) {
	runWordCount(t, 4, Config{Workers: 2}, false)
}

func TestWordCountWithFlowControl(t *testing.T) {
	runWordCount(t, 3, Config{Workers: 2, FlowControlWindow: 2, BinSize: 8}, true)
}

func TestWordCountWithSpill(t *testing.T) {
	// A tiny memory budget forces the reduce accumulator to spill.
	chunks, want := wordChunks(8, 50)
	g, sink := buildWordCount(t, false, chunks)
	nodes, cleanup := newTestCluster(t, 2, Config{Workers: 2, MemoryBudget: 4 << 10})
	defer cleanup()
	res, err := Run(g, nodes, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Metrics.Get("reduce.spills") == 0 {
		t.Errorf("expected spills with a 4KiB budget, got none\n%v", res.Metrics.Counters)
	}
	got := map[string]int64{}
	for _, kv := range sink.Pairs() {
		got[kv.Key] += kv.Value.(int64)
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%q] = %d, want %d", w, got[w], n)
		}
	}
}

// errMapper fails on a specific word to test error propagation.
type errMapper struct{ bad string }

func (m errMapper) Map(kv KV, ctx Context) error {
	if strings.Contains(kv.Value.(string), m.bad) {
		return fmt.Errorf("poisoned record %q", m.bad)
	}
	return ctx.Emit(KV{Key: kv.Value.(string), Value: int64(1)})
}

func TestJobErrorPropagates(t *testing.T) {
	g := NewGraph("err")
	sink := NewCollectSink()
	ld, _ := g.AddLoader("load", &sliceLoader{chunks: [][]string{{"ok", "boom", "ok"}}})
	mp, _ := g.AddMap("map", errMapper{bad: "boom"})
	rd, _ := g.AddPartialReduce("agg", sumPartial{})
	sk, _ := g.AddSink("out", sink)
	for _, e := range [][2]int{{ld, mp}, {mp, rd}, {rd, sk}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	nodes, cleanup := newTestCluster(t, 3, Config{Workers: 2})
	defer cleanup()
	done := make(chan error, 1)
	go func() {
		_, err := Run(g, nodes, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "poisoned") {
			t.Fatalf("want poisoned-record error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job with failing mapper hung")
	}
}

func TestGraphValidation(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if err := NewGraph("g").Validate(); err == nil {
			t.Error("empty graph validated")
		}
	})
	t.Run("noLoader", func(t *testing.T) {
		g := NewGraph("g")
		mp, _ := g.AddMap("m", wordSplit{})
		sk, _ := g.AddSink("s", NewCollectSink())
		g.Connect(mp, sk)
		if err := g.Validate(); err == nil {
			t.Error("graph without loader validated")
		}
	})
	t.Run("cycleRejected", func(t *testing.T) {
		g := NewGraph("g")
		ld, _ := g.AddLoader("l", &sliceLoader{})
		m1, _ := g.AddMap("m1", wordSplit{})
		m2, _ := g.AddMap("m2", wordSplit{})
		sk, _ := g.AddSink("s", NewCollectSink())
		g.Connect(ld, m1)
		g.Connect(m1, m2)
		g.Connect(m2, m1)
		g.Connect(m2, sk)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("cycle not rejected: %v", err)
		}
	})
	t.Run("edgeIntoLoader", func(t *testing.T) {
		g := NewGraph("g")
		ld, _ := g.AddLoader("l", &sliceLoader{})
		m1, _ := g.AddMap("m1", wordSplit{})
		if err := g.Connect(m1, ld); err == nil {
			t.Error("edge into loader accepted")
		}
	})
	t.Run("duplicateName", func(t *testing.T) {
		g := NewGraph("g")
		g.AddLoader("x", &sliceLoader{})
		if _, err := g.AddMap("x", wordSplit{}); err == nil {
			t.Error("duplicate name accepted")
		}
	})
	t.Run("danglingFlowlet", func(t *testing.T) {
		g := NewGraph("g")
		ld, _ := g.AddLoader("l", &sliceLoader{chunks: [][]string{{"a"}}})
		sk, _ := g.AddSink("s", NewCollectSink())
		g.Connect(ld, sk)
		g.AddMap("orphan", wordSplit{})
		if err := g.Validate(); err == nil {
			t.Error("orphan flowlet validated")
		}
	})
}

// locLoader emits one record per node id for routing tests.
type locLoader struct{ n int }

func (l *locLoader) Plan(env *Env) ([]Split, error) {
	return []Split{{Payload: l.n, PreferredNode: -1}}, nil
}

func (l *locLoader) Load(sp Split, ctx Context) error {
	for i := 0; i < sp.Payload.(int); i++ {
		if err := ctx.Emit(KV{Key: fmt.Sprint(i), Value: int64(i)}); err != nil {
			return err
		}
	}
	return nil
}

// nodeStamp tags each record with the node that processed it.
type nodeStamp struct{}

func (nodeStamp) Map(kv KV, ctx Context) error {
	return ctx.Emit(KV{Key: kv.Key, Value: fmt.Sprintf("node%d", ctx.Node())})
}

func TestBroadcastRouting(t *testing.T) {
	const numNodes = 3
	g := NewGraph("bcast")
	sink := NewCollectSink()
	ld, _ := g.AddLoader("l", &locLoader{n: 5})
	mp, _ := g.AddMap("stamp", nodeStamp{})
	sk, _ := g.AddSink("s", sink)
	if err := g.Connect(ld, mp, WithRouting(RouteBroadcast)); err != nil {
		t.Fatal(err)
	}
	g.Connect(mp, sk)
	nodes, cleanup := newTestCluster(t, numNodes, Config{Workers: 2})
	defer cleanup()
	if _, err := Run(g, nodes, nil); err != nil {
		t.Fatal(err)
	}
	// Every record should be observed once per node.
	perNode := map[string]int{}
	for _, kv := range sink.Pairs() {
		perNode[kv.Value.(string)]++
	}
	if len(perNode) != numNodes {
		t.Fatalf("records seen on %d nodes, want %d: %v", len(perNode), numNodes, perNode)
	}
	for n, c := range perNode {
		if c != 5 {
			t.Errorf("%s saw %d records, want 5", n, c)
		}
	}
}

func TestLocalRoutingStaysOnNode(t *testing.T) {
	// With local routing from loader to map, no shuffle bytes should move.
	g := NewGraph("local")
	sink := NewCollectSink()
	ld, _ := g.AddLoader("l", &locLoader{n: 100})
	mp, _ := g.AddMap("stamp", nodeStamp{})
	sk, _ := g.AddSink("s", sink)
	g.Connect(ld, mp, WithRouting(RouteLocal))
	g.Connect(mp, sk)
	nodes, cleanup := newTestCluster(t, 3, Config{Workers: 2})
	defer cleanup()
	res, err := Run(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Get("shuffle.bytes"); got != 0 {
		t.Errorf("local routing shuffled %d bytes, want 0", got)
	}
	if sink.Len() != 100 {
		t.Errorf("sink got %d records, want 100", sink.Len())
	}
}

// TestRunConcurrentJobs: jobs overlapping on the same runtimes do not
// interfere — each reports exactly a solo run's per-job counters and
// output, because every jobNode accounts into its own registry.
func TestRunConcurrentJobs(t *testing.T) {
	nodes, cleanup := newTestCluster(t, 2, Config{Workers: 4})
	defer cleanup()
	chunks, want := wordChunks(6, 20)
	count := func(s *CollectSink) map[string]int64 {
		m := map[string]int64{}
		for _, kv := range s.Pairs() {
			m[kv.Key] += kv.Value.(int64)
		}
		return m
	}

	g, sink := buildWordCount(t, true, chunks)
	solo, err := Run(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Metrics.Counters) == 0 {
		t.Fatal("solo run reported no per-job counters")
	}
	if got := count(sink); !reflect.DeepEqual(got, want) {
		t.Fatalf("solo run counted %v, want %v", got, want)
	}

	const jobs = 3
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	results := make([]*JobResult, jobs)
	sinks := make([]*CollectSink, jobs)
	for i := range sinks {
		g, sink := buildWordCount(t, true, chunks)
		sinks[i] = sink
		wg.Add(1)
		go func(i int, g *Graph) {
			defer wg.Done()
			results[i], errs[i] = Run(g, nodes, nil)
		}(i, g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !reflect.DeepEqual(results[i].Metrics.Counters, solo.Metrics.Counters) {
			t.Errorf("job %d counters diverge from solo:\n solo: %v\n job:  %v",
				i, solo.Metrics.Counters, results[i].Metrics.Counters)
		}
		if got := count(sinks[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("job %d counted %v, want %v", i, got, want)
		}
	}
}
