package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/substrate"
)

// Bin recycling safety: a slab that is cleared or refilled while a
// consumer still reads it shows up downstream as a missing, duplicated,
// empty or foreign pair. Every pair these tests emit is unique and
// self-describing — the key is derived from the value — so the sink can
// tell. Tiny bins and a window of one keep every slab cycling through the
// free list as fast as possible. Run under -race in CI.

// genLoader emits pair(split, i) for i in [0, perSplit) from each split.
// Once half of any split is out it closes mid (when set), the point at
// which the abort test pulls the plug.
type genLoader struct {
	splits, perSplit int
	pair             func(split, i int) KV
	mid              chan struct{}
	midOnce          sync.Once
}

func (l *genLoader) Plan(env *Env) ([]Split, error) {
	out := make([]Split, l.splits)
	for i := range out {
		out[i] = Split{Payload: i, PreferredNode: i % env.NumNodes}
	}
	return out, nil
}

func (l *genLoader) Load(sp Split, ctx Context) error {
	for i := 0; i < l.perSplit; i++ {
		if l.mid != nil && i == l.perSplit/2 {
			l.midOnce.Do(func() { close(l.mid) })
		}
		if err := ctx.Emit(l.pair(sp.Payload.(int), i)); err != nil {
			return err
		}
	}
	return nil
}

func idKey(id int64) string { return fmt.Sprintf("k%07d", id) }

// idLoader emits splits*perSplit unique pairs: value is a global id, key
// is idKey(id).
func idLoader(splits, perSplit int) *genLoader {
	return &genLoader{splits: splits, perSplit: perSplit, pair: func(split, i int) KV {
		id := int64(split*perSplit + i)
		return KV{Key: idKey(id), Value: id}
	}}
}

// passMapper, keepPartial and oneReduce forward each pair unchanged, so
// the pair crosses one more edge — and one more slab — per flowlet.
type passMapper struct{}

func (passMapper) Map(kv KV, ctx Context) error { return ctx.Emit(kv) }

type keepPartial struct{}

func (keepPartial) Update(key string, state, value any) (any, error) {
	if state != nil {
		return nil, fmt.Errorf("key %q folded twice", key)
	}
	return value, nil
}

func (keepPartial) Finish(key string, state any, ctx Context) error {
	return ctx.Emit(KV{Key: key, Value: state})
}

type oneReduce struct{}

func (oneReduce) Reduce(key string, values []any, ctx Context) error {
	if len(values) != 1 {
		return fmt.Errorf("key %q grouped %d values", key, len(values))
	}
	return ctx.Emit(KV{Key: key, Value: values[0]})
}

// idSink counts arrivals per id and records the first malformed pair.
type idSink struct {
	mu   sync.Mutex
	seen map[int64]int
	bad  string
}

func (s *idSink) Write(node int, kv KV) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := kv.Value.(int64)
	if !ok || kv.Key != idKey(id) {
		if s.bad == "" {
			s.bad = fmt.Sprintf("%+v", kv)
		}
		return nil
	}
	if s.seen == nil {
		s.seen = make(map[int64]int)
	}
	s.seen[id]++
	return nil
}

func (s *idSink) Close(node int) error { return nil }

// check asserts ids [0, total) each arrived exactly once and unmodified.
func (s *idSink) check(t *testing.T, total int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bad != "" {
		t.Fatalf("sink saw a pair that is not one the loader emitted: %s", s.bad)
	}
	if len(s.seen) != total {
		t.Fatalf("sink saw %d distinct ids, want %d", len(s.seen), total)
	}
	for id, n := range s.seen {
		if n != 1 || id < 0 || id >= int64(total) {
			t.Fatalf("id %d arrived %d times", id, n)
		}
	}
}

// idGraph wires the loader to the sink, directly or through every consumer
// kind: map, partial reduce, reduce. Each edge shuffles on different bits
// of the key hash, so a pair changes node — and every node sends to every
// other — on every hop, the sink's included.
func idGraph(t *testing.T, ld *genLoader, chain bool) (*Graph, *idSink) {
	t.Helper()
	g := NewGraph("recycle")
	sink := &idSink{}
	must := func(id int, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	ids := []int{must(g.AddLoader("load", ld))}
	if chain {
		ids = append(ids,
			must(g.AddMap("pass", passMapper{})),
			must(g.AddPartialReduce("keep", keepPartial{})),
			must(g.AddReduce("one", oneReduce{})))
	}
	ids = append(ids, must(g.AddSink("out", sink)))
	for i := 1; i < len(ids); i++ {
		shift := uint(8 * i)
		part := func(key string, n int) int { return int((HashKey(key) >> shift) % uint64(n)) }
		if err := g.Connect(ids[i-1], ids[i], WithRouting(RouteShuffle), WithPartitioner(part)); err != nil {
			t.Fatal(err)
		}
	}
	return g, sink
}

// recycleConfig is the hostile setting: 4-pair bins, one bin in flight per
// edge, and one worker, so the node's two loader slots outnumber it.
func recycleConfig() Config {
	return Config{Workers: 1, BinSize: 4, FlowControlWindow: 1}
}

// reduceTasks reads every node's reduce.tasks counter.
func reduceTasks(nodes []*NodeRuntime) []int64 {
	out := make([]int64, len(nodes))
	for i, rt := range nodes {
		out[i] = rt.Metrics().Snapshot().Get("reduce.tasks")
	}
	return out
}

// assertHome requires every free list on every node home (par.Stats.Home)
// once a job is over. After a clean job the bin list must also have kept
// slabs — the job raised its bound — and no node may have dropped a bin:
// every pair a clean job sends reaches a job that knows it, as the
// sender's own value. After an abort the bin list is left out: slabs the
// job's loaders had not sealed stay in their slots, to the GC.
func assertHome(t *testing.T, nodes []*NodeRuntime, clean bool) {
	t.Helper()
	for _, rt := range nodes {
		lists := rt.Buffers()
		if !clean {
			delete(lists, "bins")
		}
		if err := lists.Home(); err != nil {
			t.Errorf("node %d: %v", rt.id, err)
		}
		if !clean {
			continue
		}
		if s := rt.bins.Stats(); s.Free == 0 {
			t.Errorf("node %d: bin list %+v keeps no slab after a clean job", rt.id, s)
		}
		if d := rt.Metrics().Snapshot().Get("bins.dropped"); d != 0 {
			t.Errorf("node %d: bins.dropped = %d after a clean job", rt.id, d)
		}
	}
}

func TestBinRecyclingExactlyOnce(t *testing.T) {
	// Each node reduces about 200 of the 800 keys: several batches of
	// reduceTaskKeys each.
	const numNodes, splits, perSplit = 4, 8, 100
	for _, chain := range []bool{false, true} {
		chain := chain
		t.Run(fmt.Sprintf("chain=%v", chain), func(t *testing.T) {
			nodes, cleanup := newTestCluster(t, numNodes, recycleConfig())
			defer cleanup()
			// Twice on one cluster: the second job runs entirely on slabs
			// the first one left on the lists.
			for run := 0; run < 2; run++ {
				g, sink := idGraph(t, idLoader(splits, perSplit), chain)
				before := reduceTasks(nodes)
				res, err := Run(g, nodes, nil)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				sink.check(t, splits*perSplit)
				assertHome(t, nodes, true)
				if !chain {
					continue
				}
				if res.Gated == 0 {
					t.Errorf("run %d: no bin was flow-gated; the pending queue went unexercised", run)
				}
				for i, n := range reduceTasks(nodes) {
					if n-before[i] < 2 {
						t.Errorf("run %d: node %d fired %d reduce tasks, want at least 2", run, i, n-before[i])
					}
				}
			}
		})
	}
}

// TestBinRecyclingSurvivesAbort aborts a job mid-flight — bins in slots,
// on the fabric, gated in pending queues and inside tasks all at once —
// and then requires a clean job on the same runtimes, sharing their lists
// with whatever the aborted job's stragglers still return, to be exact.
func TestBinRecyclingSurvivesAbort(t *testing.T) {
	const numNodes, splits, perSplit = 4, 8, 50
	nodes, cleanup := newTestCluster(t, numNodes, recycleConfig())
	defer cleanup()

	ld := idLoader(splits, perSplit)
	ld.mid = make(chan struct{})
	g, _ := idGraph(t, ld, true)
	j, err := NewJob(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Start()
	<-ld.mid
	j.Abort(fmt.Errorf("test stop: %w", ErrJobCanceled))
	done := make(chan error, 1)
	go func() { _, werr := j.Wait(); done <- werr }()
	select {
	case werr := <-done:
		if !errors.Is(werr, ErrJobCanceled) {
			t.Fatalf("Wait after Abort = %v, want ErrJobCanceled", werr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("aborted job did not settle")
	}

	g, sink := idGraph(t, idLoader(splits, perSplit), true)
	if _, err := Run(g, nodes, nil); err != nil {
		t.Fatalf("job after abort: %v", err)
	}
	sink.check(t, splits*perSplit)
	assertHome(t, nodes, false)
}

// TestAccumulatorChunksHomeAfterAbort aborts a job while its reduce
// flowlets hold chunks and have spilled runs on every node and the loaders
// are still emitting: once Wait returns, every chunk is back on its node's
// list and every spill run is off its node's disk, and the next job on the
// same runtimes draws from those lists without making more.
func TestAccumulatorChunksHomeAfterAbort(t *testing.T) {
	const numNodes, splits, perSplit = 4, 8, 400
	// Each node takes about 400 pairs before the loaders hold: a 2 KiB
	// budget spills them several times over.
	cfg := recycleConfig()
	cfg.MemoryBudget = 2 << 10
	nodes, cleanup := newTestCluster(t, numNodes, cfg)
	defer cleanup()
	used := make([]int64, numNodes)
	for i, rt := range nodes {
		used[i] = rt.Disk().(*storage.MemDisk).Used()
	}

	ld := idLoader(splits, perSplit)
	ld.mid = make(chan struct{})
	hold := make(chan struct{})
	pair := ld.pair
	ld.pair = func(split, i int) KV {
		if i == perSplit/2 {
			<-hold
		}
		return pair(split, i)
	}
	g := NewGraph("abort-acc")
	l, _ := g.AddLoader("load", ld)
	r, _ := g.AddReduce("one", oneReduce{})
	s, _ := g.AddSink("out", NewCollectSink())
	for _, e := range [][2]int{{l, r}, {r, s}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	j, err := NewJob(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	runs := fmt.Sprintf("job%d/reduce-", j.ID())
	j.Start()
	<-ld.mid
	deadline := time.Now().Add(10 * time.Second)
	for ready := 0; ready < numNodes; {
		ready = 0
		for _, rt := range nodes {
			if rt.chunks.Stats().Live > 0 && len(rt.Disk().List(runs)) > 0 {
				ready++
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d nodes hold accumulator chunks and spill runs", ready, numNodes)
		}
		time.Sleep(time.Millisecond)
	}
	j.Abort(fmt.Errorf("test stop: %w", ErrJobCanceled))
	close(hold)
	if _, err := j.Wait(); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("Wait after Abort = %v, want ErrJobCanceled", err)
	}
	assertHome(t, nodes, false)
	for i, rt := range nodes {
		if left := rt.Disk().List(runs); len(left) > 0 {
			t.Errorf("node %d: the aborted job left its spill runs %v", i, left)
		}
		if u := rt.Disk().(*storage.MemDisk).Used(); u != used[i] {
			t.Errorf("node %d: disk holds %d bytes after the aborted job, %d before it", i, u, used[i])
		}
	}
	made := make([]int, numNodes)
	for i, rt := range nodes {
		made[i] = rt.chunks.Stats().Made
	}

	g2, sink := idGraph(t, idLoader(2, 50), true)
	if _, err := Run(g2, nodes, nil); err != nil {
		t.Fatalf("job after abort: %v", err)
	}
	sink.check(t, 2*50)
	assertHome(t, nodes, false)
	for i, rt := range nodes {
		if m := rt.chunks.Stats().Made; m != made[i] {
			t.Errorf("node %d made %d chunks after the abort, want the %d it had", i, m-made[i], made[i])
		}
	}
}

// TestBinRecyclingUnderRefires crashes loader splits, partial-reduce
// stripes and reduce batches at their start; the re-fired tasks draw slabs
// from the same lists and the output must not change.
func TestBinRecyclingUnderRefires(t *testing.T) {
	// 1,600 keys: about seven reduce batches of 64 keys on each node, enough
	// for the seed to crash some.
	const numNodes, splits, perSplit = 4, 8, 200
	cfg := recycleConfig()
	inj := faults.New(faults.Config{Seed: 3, FlowletFire: 0.15, Armed: true}, numNodes, nil)
	nodes, cleanup := newClusterOn(t, NewTestNetwork(), numNodes, cfg, substrate.Handle{Faults: inj})
	defer cleanup()
	g, sink := idGraph(t, idLoader(splits, perSplit), true)
	if _, err := Run(g, nodes, nil); err != nil {
		t.Fatalf("run: %v (seed exhausted a task's re-fires; pick another)", err)
	}
	sink.check(t, splits*perSplit)
	assertHome(t, nodes, true)
	fired := strings.Join(inj.Sites(), " ")
	for _, kind := range []string{"split:", "pstripe:", "rbatch:"} {
		if !strings.Contains(fired, "flowlet.fire:"+kind) {
			t.Errorf("seed crashed no %s task; pick another seed (fired: %s)", kind, fired)
		}
	}
}

// cellSum folds counts into one heap cell per key, so the fold itself
// allocates per key, not per pair.
type cellSum struct{}

func (cellSum) Update(key string, state, value any) (any, error) {
	if state == nil {
		state = new(int64)
	}
	*state.(*int64) += value.(int64)
	return state, nil
}

func (cellSum) Finish(key string, state any, ctx Context) error {
	return ctx.Emit(KV{Key: key, Value: *state.(*int64)})
}

// TestShuffleAllocsPerKV is the allocation guard on the record path: emit →
// bin → coalescer → shuffle → partial-reduce fold. With slabs recycled the
// engine's own allocation no longer scales with the number of pairs; when
// every bin grew from nil it was about 64 B per pair from bins alone. The
// second run on a cluster is the one measured, its lists already warm.
func TestShuffleAllocsPerKV(t *testing.T) {
	const (
		numNodes, splits, perSplit = 4, 8, 25000
		maxBytesPerKV              = 8
	)
	words := make([]string, 509)
	for i := range words {
		words[i] = fmt.Sprintf("word-%03d", i)
	}
	nodes, cleanup := newTestCluster(t, numNodes, Config{Workers: 4, FlowControlWindow: 32})
	defer cleanup()
	run := func() float64 {
		g := NewGraph("alloc-guard")
		sink := NewCollectSink()
		// (word, 1) pairs that cost nothing to make: the keys are shared
		// and small integers box for free.
		ld, err := g.AddLoader("load", &genLoader{splits: splits, perSplit: perSplit, pair: func(split, i int) KV {
			return KV{Key: words[(split*7+i)%len(words)], Value: int64(1)}
		}})
		if err != nil {
			t.Fatal(err)
		}
		cnt, err := g.AddPartialReduce("count", cellSum{})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := g.AddSink("out", sink)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range [][2]int{{ld, cnt}, {cnt, sk}} {
			if err := g.Connect(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := Run(g, nodes, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		var total int64
		for _, kv := range sink.Pairs() {
			total += kv.Value.(int64)
		}
		if total != splits*perSplit {
			t.Fatalf("folded %d of %d pairs", total, splits*perSplit)
		}
		return float64(m1.TotalAlloc-m0.TotalAlloc) / (splits * perSplit)
	}
	cold := run()
	warm := run()
	t.Logf("allocated per emitted KV: %.2f B cold, %.2f B warm (bound %d B)", cold, warm, maxBytesPerKV)
	if warm > maxBytesPerKV {
		t.Errorf("second run allocated %.2f B per emitted KV, want <= %d", warm, maxBytesPerKV)
	}
}

// TestAccumulatorAllocsPerRecord is the allocation guard on the reduce
// path: emit → bin → shuffle → accumulator → grouped reduce. Three jobs
// run back to back on one set of runtimes, as an iterative application's
// jobs do: the second and third make no accumulator chunk — they buffer
// in the chunks the first one sent home — and stay under a per-record
// bound. What is left per record is the reducer's values slice; before
// chunks, every reduce flowlet grew its buffer by doubling from nothing,
// once per job.
func TestAccumulatorAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("a measurement, not a race check: the detector makes its three jobs about ten times slower")
	}
	const (
		numNodes, splits, perSplit = 4, 8, 25000
		maxBytesPerRecord          = 24
	)
	words := make([]string, 509)
	for i := range words {
		words[i] = fmt.Sprintf("word-%03d", i)
	}
	nodes, cleanup := newTestCluster(t, numNodes, Config{Workers: 4, FlowControlWindow: 32})
	defer cleanup()
	run := func() float64 {
		g := NewGraph("acc-alloc-guard")
		sink := NewCollectSink()
		ld, err := g.AddLoader("load", &genLoader{splits: splits, perSplit: perSplit, pair: func(split, i int) KV {
			return KV{Key: words[(split*7+i)%len(words)], Value: int64(1)}
		}})
		if err != nil {
			t.Fatal(err)
		}
		red, err := g.AddReduce("count", sumReduce{})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := g.AddSink("out", sink)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range [][2]int{{ld, red}, {red, sk}} {
			if err := g.Connect(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := Run(g, nodes, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		var total int64
		for _, kv := range sink.Pairs() {
			total += kv.Value.(int64)
		}
		if total != splits*perSplit {
			t.Fatalf("reduced %d of %d pairs", total, splits*perSplit)
		}
		assertHome(t, nodes, true)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / (splits * perSplit)
	}
	made := func() (n int) {
		for _, rt := range nodes {
			n += rt.chunks.Stats().Made
		}
		return n
	}
	first := run()
	chunks := made()
	if chunks == 0 {
		t.Fatal("the first job made no accumulator chunk")
	}
	for job := 2; job <= 3; job++ {
		perRecord := run()
		t.Logf("job %d allocated %.2f B per record (first job %.2f B, bound %d B)", job, perRecord, first, maxBytesPerRecord)
		if n := made(); n != chunks {
			t.Errorf("job %d made %d accumulator chunks; the first job's %d should have served it", job, n-chunks, chunks)
		}
		if perRecord > maxBytesPerRecord {
			t.Errorf("job %d allocated %.2f B per record, want <= %d", job, perRecord, maxBytesPerRecord)
		}
	}
}

// TestCloseHandsBackOnce: a runtime closed twice files its lists in the
// depot once. Two sets of runtimes built after it hold distinct lists —
// one of them the closed runtime's — and after a job on each, run at
// once, both sets are home.
func TestCloseHandsBackOnce(t *testing.T) {
	cfg := Config{Workers: 2, BinSize: 7, FlowControlWindow: 2}
	const numNodes = 2
	closed, cleanup := newTestCluster(t, numNodes, cfg)
	g, sink := idGraph(t, idLoader(2, 50), true)
	if _, err := Run(g, closed, nil); err != nil {
		t.Fatal(err)
	}
	sink.check(t, 2*50)
	cleanup()
	cleanup()

	x, cleanupX := newTestCluster(t, numNodes, cfg)
	defer cleanupX()
	y, cleanupY := newTestCluster(t, numNodes, cfg)
	defer cleanupY()
	for i := range closed {
		if x[i].nodeLists == y[i].nodeLists {
			t.Fatalf("node %d: two live runtimes share one set of lists", i)
		}
		if x[i].nodeLists != closed[i].nodeLists && y[i].nodeLists != closed[i].nodeLists {
			t.Errorf("node %d: the closed runtime's lists went to neither new runtime", i)
		}
	}
	var wg sync.WaitGroup
	sets := [][]*NodeRuntime{x, y}
	sinks := make([]*idSink, len(sets))
	errs := make([]error, len(sets))
	for i, nodes := range sets {
		var g *Graph
		g, sinks[i] = idGraph(t, idLoader(2, 50), true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Run(g, nodes, nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		sinks[i].check(t, 2*50)
	}
	assertHome(t, x, true)
	assertHome(t, y, true)
}

// runReadFault fails every read of a reduce spill run once the run has
// served failAfter bytes.
type runReadFault struct{ failAfter int64 }

func (runReadFault) CreateFault(string) (int64, error) { return 0, nil }

func (f runReadFault) OpenFault(name string) (int64, error) {
	if strings.Contains(name, "/reduce-") {
		return f.failAfter, errors.New("injected run read fault")
	}
	return 0, nil
}

// TestReduceBatchHomeAfterFailedMerge: a spill run that stops reading part
// way through the reduce's merge fails the job while a batch is half
// filled. That batch goes back with the rest: once Run returns, every list
// but the bins (the reduce's unsealed output bins stay in their slots) is
// home.
func TestReduceBatchHomeAfterFailedMerge(t *testing.T) {
	net := NewTestNetwork()
	defer net.Close()
	disk := storage.NewFaultyDisk(storage.NewMemDisk(0), runReadFault{failAfter: 256})
	cfg := recycleConfig()
	cfg.MemoryBudget = 2 << 10
	rt, err := NewNodeRuntime(0, cfg, substrate.Handle{}, net, disk, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	g := NewGraph("failed-merge")
	l, _ := g.AddLoader("load", idLoader(2, 400))
	r, _ := g.AddReduce("one", oneReduce{})
	s, _ := g.AddSink("out", NewCollectSink())
	for _, e := range [][2]int{{l, r}, {r, s}} {
		if err := g.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Run(g, []*NodeRuntime{rt}, nil); err == nil || !strings.Contains(err.Error(), "injected run read fault") {
		t.Fatalf("Run = %v, want the injected read fault", err)
	}
	if n := rt.Metrics().Snapshot().Get("reduce.spills"); n == 0 {
		t.Fatal("the reduce never spilled: its merge read no run")
	}
	assertHome(t, []*NodeRuntime{rt}, false)
}
