package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/transport"
)

// TestHandleDropsWhatItCannotDecode: per kind, handle takes the sender's
// own value and nothing else. A payload of any other type — bytes are just
// another one — is one counted bins.dropped, as is a bin for a job this
// node does not know, and every slab goes home. Well-typed acks,
// completions and failures for an unknown job are stragglers, not drops.
func TestHandleDropsWhatItCannotDecode(t *testing.T) {
	nodes, cleanup := newTestCluster(t, 1, Config{BinSize: 4})
	defer cleanup()
	rt := nodes[0]
	var bad []transport.Message
	for _, kind := range []string{msgBin, msgAck, msgComplete, msgFail} {
		for _, p := range []any{[]byte{1, 2, 3}, Bin{}, &ackMsg{}, "text"} {
			bad = append(bad, transport.Message{Kind: kind, Payload: p})
		}
	}
	stray := rt.bins.Get()
	stray.Job = 1
	bad = append(bad, transport.Message{Kind: msgBin, Payload: stray})
	for _, m := range bad {
		rt.handle(m)
	}
	if got := rt.Metrics().Snapshot().Get("bins.dropped"); got != int64(len(bad)) {
		t.Errorf("bins.dropped = %d, want %d", got, len(bad))
	}
	if err := rt.bins.Stats().Home(); err != nil {
		t.Errorf("slabs after the drops: %v", err)
	}
	for _, m := range []transport.Message{
		{Kind: msgAck, Payload: ackMsg{Job: 1}}, {Kind: msgComplete, Payload: completeMsg{Job: 1}}, {Kind: msgFail, Payload: failMsg{Job: 1}},
	} {
		rt.handle(m)
	}
	if got := rt.Metrics().Snapshot().Get("bins.dropped"); got != int64(len(bad)) {
		t.Errorf("bins.dropped = %d after well-typed stragglers, want %d", got, len(bad))
	}
}

// Property: partial reduce with a commutative+associative fold computes
// exactly what a full reduce computes, for any input multiset — the §2
// requirement that makes partial reduce safe.
func TestPartialEqualsReduceProperty(t *testing.T) {
	nodes, cleanup := newTestCluster(t, 3, Config{Workers: 2})
	defer cleanup()
	f := func(wordSel []uint8) bool {
		if len(wordSel) == 0 {
			return true
		}
		var lines []string
		for i, w := range wordSel {
			lines = append(lines, fmt.Sprintf("w%d w%d", w%7, (int(w)+i)%5))
		}
		chunks := [][]string{lines}
		run := func(partial bool) map[string]int64 {
			g, sink := buildWordCount(t, partial, chunks)
			if _, err := Run(g, nodes, nil); err != nil {
				t.Fatal(err)
			}
			out := map[string]int64{}
			for _, kv := range sink.Pairs() {
				out[kv.Key] += kv.Value.(int64)
			}
			return out
		}
		a, b := run(true), run(false)
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

// routeRecorder records which node each pair was observed on.
type routeRecorder struct{}

func (routeRecorder) Map(kv KV, ctx Context) error {
	return ctx.Emit(KV{Key: kv.Key, Value: int64(ctx.Node())})
}

// directLoader emits each (key, node) pair via EmitToNode.
type directLoader struct {
	targets map[string]int
}

func (l *directLoader) Plan(env *Env) ([]Split, error) {
	return []Split{{Payload: nil, PreferredNode: 0}}, nil
}

func (l *directLoader) Load(sp Split, ctx Context) error {
	for k, n := range l.targets {
		if err := ctx.EmitToNode("stamp", n, KV{Key: k, Value: int64(0)}); err != nil {
			return err
		}
	}
	return nil
}

func TestEmitToNodeRouting(t *testing.T) {
	const numNodes = 4
	targets := map[string]int{"a": 3, "b": 0, "c": 2, "d": 1}
	g := NewGraph("direct")
	sink := NewCollectSink()
	ld, _ := g.AddLoader("load", &directLoader{targets: targets})
	mp, _ := g.AddMap("stamp", routeRecorder{})
	sk, _ := g.AddSink("out", sink)
	g.Connect(ld, mp) // routing overridden per-pair by EmitToNode
	g.Connect(mp, sk)
	nodes, cleanup := newTestCluster(t, numNodes, Config{Workers: 2})
	defer cleanup()
	if _, err := Run(g, nodes, nil); err != nil {
		t.Fatal(err)
	}
	for _, kv := range sink.Pairs() {
		want := targets[kv.Key]
		if int(kv.Value.(int64)) != want {
			t.Errorf("key %q processed on node %d, want %d", kv.Key, kv.Value, want)
		}
	}
	if sink.Len() != len(targets) {
		t.Errorf("%d pairs, want %d", sink.Len(), len(targets))
	}
}

func TestEmitToUnknownFlowlet(t *testing.T) {
	g := NewGraph("bad")
	sink := NewCollectSink()
	ld, _ := g.AddLoader("load", &sliceLoader{chunks: [][]string{{"x"}}})
	mp, _ := g.AddMap("m", MapperFuncT(func(kv KV, ctx Context) error {
		return ctx.EmitTo("nonexistent", kv)
	}))
	sk, _ := g.AddSink("out", sink)
	g.Connect(ld, mp)
	g.Connect(mp, sk)
	nodes, cleanup := newTestCluster(t, 2, Config{Workers: 2})
	defer cleanup()
	_, err := Run(g, nodes, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown flowlet") {
		t.Fatalf("EmitTo(unknown) error = %v", err)
	}
}

// MapperFuncT adapts a function to Mapper for tests.
type MapperFuncT func(kv KV, ctx Context) error

// Map implements Mapper.
func (f MapperFuncT) Map(kv KV, ctx Context) error { return f(kv, ctx) }

// TestRefusedRuntimeLeavesNoGoroutine: by the time the network refuses a
// second runtime under a registered id, that runtime has started its worker
// pool; the error path has to stop it.
func TestRefusedRuntimeLeavesNoGoroutine(t *testing.T) {
	net := NewTestNetwork()
	defer net.Close()
	newRuntime := func() (*NodeRuntime, error) {
		return NewNodeRuntime(0, Config{Workers: 8}, substrate.Handle{}, net, storage.NewMemDisk(0), nil)
	}
	rt, err := newRuntime()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		if _, err := newRuntime(); err == nil {
			t.Fatal("a second runtime registered as node 0")
		}
	}
	// A worker has called Done a moment before it is gone.
	for wait := time.Millisecond; runtime.NumGoroutine() > base && wait < time.Second; wait *= 2 {
		time.Sleep(wait)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after ten refused runtimes, %d before", n, base)
	}
}

func TestStatusLifecycle(t *testing.T) {
	// Build a job node directly and inspect flowlet status transitions.
	net := NewTestNetwork()
	defer net.Close()
	rt, err := NewNodeRuntime(0, Config{Workers: 1}, substrate.Handle{}, net, storage.NewMemDisk(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	g := NewGraph("life")
	sink := NewCollectSink()
	ld, _ := g.AddLoader("load", &sliceLoader{chunks: [][]string{{"a b"}}})
	mp, _ := g.AddMap("split", wordSplit{})
	rd, _ := g.AddReduce("count", sumReduce{})
	sk, _ := g.AddSink("out", sink)
	g.Connect(ld, mp)
	g.Connect(mp, rd)
	g.Connect(rd, sk)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	jn := newJobNode(rt, g, 999999, 1)
	if got := jn.flowlets[ld].status(); got != StatusReady {
		t.Errorf("loader initial status %v, want ready (§2: initially only loader is ready)", got)
	}
	for _, id := range []int{mp, rd, sk} {
		if got := jn.flowlets[id].status(); got != StatusDormant {
			t.Errorf("flowlet %d initial status %v, want dormant", id, got)
		}
	}
	if err := rt.registerJob(jn); err != nil {
		t.Fatal(err)
	}
	jn.start(map[int][]Split{ld: {{Payload: []string{"a b a"}}}})
	select {
	case <-jn.doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("job hung")
	}
	rt.unregisterJob(jn.jobID)
	for id, fs := range jn.flowlets {
		if got := fs.status(); got != StatusComplete {
			t.Errorf("flowlet %d final status %v, want complete", id, got)
		}
	}
	if sink.Len() != 2 {
		t.Errorf("sink got %d pairs", sink.Len())
	}
	for _, s := range []Status{StatusDormant, StatusReady, StatusComplete, Status(99)} {
		if s.String() == "" {
			t.Errorf("Status(%d).String empty", s)
		}
	}
}

func TestContentionCostCharged(t *testing.T) {
	// With a contention cost configured, a skewed partial reduce must
	// record modeled contention time.
	chunks := [][]string{}
	for i := 0; i < 8; i++ {
		chunks = append(chunks, []string{strings.Repeat("hot ", 50)})
	}
	g, sink := buildWordCount(t, true, chunks)
	nodes, cleanup := newTestCluster(t, 2, Config{Workers: 2, ContentionCost: 10 * time.Microsecond})
	defer cleanup()
	res, err := Run(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Metrics.Timers["partial.contention"]; d <= 0 {
		t.Errorf("no contention charged: %v", res.Metrics.Timers)
	}
	got := map[string]int64{}
	for _, kv := range sink.Pairs() {
		got[kv.Key] += kv.Value.(int64)
	}
	if got["hot"] != 400 {
		t.Errorf("hot = %d, want 400", got["hot"])
	}
}

func TestSerializeUpdatesSingleStripe(t *testing.T) {
	g := NewGraph("ser")
	sink := NewCollectSink()
	ld, _ := g.AddLoader("load", &sliceLoader{chunks: [][]string{{"a a b b c"}}})
	mp, _ := g.AddMap("split", wordSplit{})
	pr, _ := g.AddPartialReduce("count", sumPartial{})
	g.Flowlets()[pr].SerializeUpdates = true
	sk, _ := g.AddSink("out", sink)
	g.Connect(ld, mp)
	g.Connect(mp, pr)
	g.Connect(pr, sk)
	nodes, cleanup := newTestCluster(t, 2, Config{Workers: 2})
	defer cleanup()
	if _, err := Run(g, nodes, nil); err != nil {
		t.Fatal(err)
	}
	got := sink.Map()
	if got["a"].(int64) != 2 || got["b"].(int64) != 2 || got["c"].(int64) != 1 {
		t.Errorf("serialized counts = %v", got)
	}
}

func TestConfigFillDefaults(t *testing.T) {
	var c Config
	c.FillDefaults()
	if c.Workers <= 0 || c.BinSize <= 0 ||
		c.LoaderConcurrency <= 0 || c.ReduceTaskKeys <= 0 || c.PartialStripes <= 0 {
		t.Errorf("defaults incomplete: %+v", c)
	}
	c2 := Config{Workers: 7, BinSize: 11}
	c2.FillDefaults()
	if c2.Workers != 7 || c2.BinSize != 11 {
		t.Error("FillDefaults clobbered explicit settings")
	}
}

func TestJobResultMetricsAggregated(t *testing.T) {
	chunks, _ := wordChunks(6, 10)
	g, _ := buildWordCount(t, true, chunks)
	nodes, cleanup := newTestCluster(t, 3, Config{Workers: 2})
	defer cleanup()
	res, err := Run(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Get("bins.sent") == 0 || res.Metrics.Get("bins.recv") == 0 {
		t.Errorf("bin counters empty: %v", res.Metrics.Counters)
	}
	if res.Metrics.Get("loader.splits") != 6 {
		t.Errorf("loader.splits = %d, want 6", res.Metrics.Get("loader.splits"))
	}
	if len(res.SplitsPerNode) != 3 {
		t.Errorf("SplitsPerNode = %v", res.SplitsPerNode)
	}
	total := 0
	for _, n := range res.SplitsPerNode {
		total += n
	}
	if total != 6 {
		t.Errorf("splits distributed = %d, want 6", total)
	}
}

func TestSplitAssignmentBalanced(t *testing.T) {
	// 12 splits with no preference over 4 nodes must land 3 per node.
	chunks, _ := wordChunks(12, 5)
	g, _ := buildWordCount(t, true, chunks)
	nodes, cleanup := newTestCluster(t, 4, Config{Workers: 2})
	defer cleanup()
	res, err := Run(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n, c := range res.SplitsPerNode {
		if c != 3 {
			t.Errorf("node %d got %d splits, want 3: %v", n, c, res.SplitsPerNode)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindLoader: "loader", KindMap: "map", KindReduce: "reduce",
		KindPartialReduce: "partial-reduce", KindSink: "sink", Kind(42): "kind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestFlowletStatsAndTimeline(t *testing.T) {
	chunks, _ := wordChunks(4, 10)
	g, _ := buildWordCount(t, true, chunks)
	nodes, cleanup := newTestCluster(t, 2, Config{Workers: 2})
	defer cleanup()
	res, err := Run(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flowlets) != 4 {
		t.Fatalf("%d flowlet stats, want 4", len(res.Flowlets))
	}
	byName := map[string]FlowletStat{}
	for _, fs := range res.Flowlets {
		byName[fs.Name] = fs
		if fs.CompletedAt <= 0 {
			t.Errorf("flowlet %q has no completion time", fs.Name)
		}
	}
	if byName["load"].LoaderSplits != 4 {
		t.Errorf("loader splits = %d", byName["load"].LoaderSplits)
	}
	if byName["split"].BinsIn == 0 || byName["count"].BinsIn == 0 {
		t.Error("downstream flowlets consumed no bins")
	}
	// Completion must respect topological order: loader before the
	// partial reduce, which waits for everything upstream.
	if byName["load"].CompletedAt > byName["count"].CompletedAt {
		t.Errorf("loader completed after the aggregation (%v > %v)",
			byName["load"].CompletedAt, byName["count"].CompletedAt)
	}
	out := res.Timeline()
	for _, want := range []string{"load", "split", "count", "out", "complete@"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}
