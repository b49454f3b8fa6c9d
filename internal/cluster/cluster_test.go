package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/kvstore"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/transport"
	"github.com/hamr-go/hamr/internal/yarn"
)

func TestNewWiresServices(t *testing.T) {
	c, err := New(Options{NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumNodes() != 3 || len(c.Nodes()) != 3 || len(c.Disks()) != 3 {
		t.Fatal("geometry wrong")
	}
	for i, rt := range c.Nodes() {
		if _, ok := rt.Service(ServiceHDFS).(*hdfs.FileSystem); !ok {
			t.Errorf("node %d missing hdfs service", i)
		}
		if _, ok := rt.Service(ServiceKVStore).(*kvstore.Store); !ok {
			t.Errorf("node %d missing kvstore service", i)
		}
		if d, ok := rt.Service(ServiceDisk).(storage.Disk); !ok || d != c.Disk(i) {
			t.Errorf("node %d disk service wrong", i)
		}
	}
	if c.Yarn() == nil || c.Store() == nil || c.FS() == nil || c.Metrics() == nil {
		t.Fatal("cluster handles missing")
	}
}

func TestLocalTextRoundTrip(t *testing.T) {
	c, err := New(Options{NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteLocalText(1, "f.txt", []byte("on node one")); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadLocalText(1, "f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "on node one" {
		t.Fatalf("read %q", data)
	}
	if _, err := c.ReadLocalText(0, "f.txt"); err == nil {
		t.Fatal("file visible from the wrong node's disk")
	}
}

func TestRunJobOnCluster(t *testing.T) {
	c, err := New(Options{NumNodes: 4, Core: core.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Store input in HDFS, run a job whose loader reads it back via the
	// hdfs service — exercises the full service wiring.
	content := "red green blue\nred blue\nblue\n"
	if err := c.FS().WriteFile("in/colors.txt", []byte(content), -1); err != nil {
		t.Fatal(err)
	}

	g := core.NewGraph("colors")
	sink := core.NewCollectSink()
	ld, _ := g.AddLoader("load", &hdfsLoader{prefix: "in/"})
	mp, _ := g.AddMap("split", splitter{})
	pr, _ := g.AddPartialReduce("count", summer{})
	sk, _ := g.AddSink("out", sink)
	g.Connect(ld, mp)
	g.Connect(mp, pr)
	g.Connect(pr, sk)

	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, kv := range sink.Pairs() {
		got[kv.Key] += kv.Value.(int64)
	}
	if got["blue"] != 3 || got["red"] != 2 || got["green"] != 1 {
		t.Fatalf("counts = %v", got)
	}
}

// TestConcurrentJobsIsolatedMetrics: Runs overlapping on one cluster do not
// interfere — each reports exactly a solo run's per-job counters and
// output, and the fabric drain each Run ends with waits out the others'
// traffic rather than hanging on it.
func TestConcurrentJobsIsolatedMetrics(t *testing.T) {
	corpus := testCorpus(200)
	const jobs = 4

	c, err := New(Options{NumNodes: 3, Core: core.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, sink := wordGraph(t, corpus, 6)
	solo, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Metrics.Counters) == 0 {
		t.Fatal("solo run reported no per-job counters")
	}
	want := corpusCounts(corpus)
	if got := sinkCounts(sink); !reflect.DeepEqual(got, want) {
		t.Fatalf("solo run counted %v, want %v", got, want)
	}

	var wg sync.WaitGroup
	errs := make([]error, jobs)
	results := make([]*core.JobResult, jobs)
	sinks := make([]*core.CollectSink, jobs)
	for i := range sinks {
		gi, si := wordGraph(t, corpus, 6)
		sinks[i] = si
		wg.Add(1)
		go func(i int, g *core.Graph) {
			defer wg.Done()
			results[i], errs[i] = c.Run(g)
		}(i, gi)
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
		if got := sinkCounts(sinks[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("job %d output differs from solo", i)
		}
	}
}

// TestRunContextCancelMidLoad cancels a job once its loader has emitted
// and its reduce flowlet holds accumulator chunks: RunContext returns a
// typed error in bounded time with every chunk back on its node's list,
// and the same cluster then runs a fresh job to the right answer, so every
// node let go of the canceled one.
func TestRunContextCancelMidLoad(t *testing.T) {
	c, err := New(Options{NumNodes: 2, Core: core.Config{Workers: 1, BinSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The canceled loader's unsealed bins stay in their slots, to the GC:
	// of the node lists only the chunks are required home.
	chunksHome := func(when string) {
		t.Helper()
		for i, rt := range c.Nodes() {
			if err := rt.Buffers()["acc-chunks"]().Home(); err != nil {
				t.Errorf("%s: node %d chunk list: %v", when, i, err)
			}
		}
	}

	ld := &slowLoader{started: make(chan struct{})}
	g := slowGraph(t, ld)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.RunContext(ctx, g)
		done <- err
	}()
	select {
	case <-ld.started:
	case <-time.After(10 * time.Second):
		t.Fatal("loader never started")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if c.Nodes()[0].Buffers()["acc-chunks"]().Live+c.Nodes()[1].Buffers()["acc-chunks"]().Live > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no reduce flowlet buffered a pair")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrJobCanceled) {
			t.Fatalf("RunContext after cancel = %v, want ErrJobCanceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("canceled job did not return in bounded time")
	}
	chunksHome("after the canceled job")

	corpus := testCorpus(120)
	wc, sink := wordGraph(t, corpus, 4)
	if _, err := c.Run(wc); err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
	if got, want := sinkCounts(sink), corpusCounts(corpus); !reflect.DeepEqual(got, want) {
		t.Fatalf("run after cancel counted %v, want %v", got, want)
	}
	chunksHome("after the next job")
}

// TestRunContextCanceledBeforeStart: a context already canceled is refused
// with ErrJobCanceled before any loader split runs or any message is sent.
func TestRunContextCanceledBeforeStart(t *testing.T) {
	c, err := New(Options{NumNodes: 2, Core: core.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ld := &slowLoader{started: make(chan struct{})}
	if _, err := c.RunContext(ctx, slowGraph(t, ld)); !errors.Is(err, core.ErrJobCanceled) {
		t.Fatalf("RunContext on a canceled ctx = %v, want ErrJobCanceled", err)
	}
	select {
	case <-ld.started:
		t.Fatal("a loader split ran under a canceled ctx")
	default:
	}
	snap := c.Metrics().Snapshot()
	if n := snap.Get("loader.splits"); n != 0 {
		t.Fatalf("loader.splits = %d, want 0", n)
	}
	if n := snap.Get("net.msgs"); n != 0 {
		t.Fatalf("net.msgs = %d, want 0", n)
	}
}

// TestRunContextCancelAfterReturn: RunContext with a live context runs the
// same job as Run, and canceling that context once RunContext returned
// sends nothing: no abort crosses the fabric after the drain.
func TestRunContextCancelAfterReturn(t *testing.T) {
	c, err := New(Options{NumNodes: 2, Core: core.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	corpus := testCorpus(120)

	g1, s1 := wordGraph(t, corpus, 4)
	res1, err := c.Run(g1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	g2, s2 := wordGraph(t, corpus, 4)
	res2, err := c.RunContext(ctx, g2)
	if err != nil {
		t.Fatal(err)
	}
	msgs := c.Metrics().Snapshot().Get("net.msgs")
	cancel()
	// There is no event to wait for: a watcher left armed would fire on
	// its own goroutine, so give it time to, then drain what it sent.
	time.Sleep(5 * time.Millisecond)
	c.net.Quiesce()
	if got := c.Metrics().Snapshot().Get("net.msgs"); got != msgs {
		t.Fatalf("cancel after return sent %d messages", got-msgs)
	}

	if !reflect.DeepEqual(res1.Metrics.Counters, res2.Metrics.Counters) {
		t.Errorf("Run and RunContext counters differ:\n run:        %v\n runcontext: %v",
			res1.Metrics.Counters, res2.Metrics.Counters)
	}
	if !reflect.DeepEqual(sinkCounts(s1), sinkCounts(s2)) {
		t.Error("Run and RunContext outputs differ")
	}
}

// TestRunContextRejectsInvalidGraph: a nil or malformed graph fails with
// ErrGraphInvalid before anything runs.
func TestRunContextRejectsInvalidGraph(t *testing.T) {
	c, err := New(Options{NumNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunContext(context.Background(), nil); !errors.Is(err, core.ErrGraphInvalid) {
		t.Errorf("nil graph: %v, want ErrGraphInvalid", err)
	}
	if _, err := c.RunContext(context.Background(), core.NewGraph("empty")); !errors.Is(err, core.ErrGraphInvalid) {
		t.Errorf("empty graph: %v, want ErrGraphInvalid", err)
	}
}

func TestYarnIntegration(t *testing.T) {
	c, err := New(Options{NumNodes: 2, YarnMemMB: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ct, err := c.Yarn().Allocate(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Node != 0 {
		t.Errorf("container on node %d", ct.Node)
	}
	c.Yarn().Release(ct)
	if _, err := c.Yarn().Allocate(101, -1); err == nil {
		t.Error("oversized container granted")
	}
	var ye *yarn.Scheduler = c.Yarn()
	_ = ye
}

// hdfsLoader reads lines of all files under a prefix.
type hdfsLoader struct{ prefix string }

func (l *hdfsLoader) Plan(env *core.Env) ([]core.Split, error) {
	fs := env.Service(ServiceHDFS).(*hdfs.FileSystem)
	splits, err := fs.SplitsGlob(l.prefix)
	if err != nil {
		return nil, err
	}
	out := make([]core.Split, len(splits))
	for i, sp := range splits {
		pref := -1
		if len(sp.Hosts) > 0 {
			pref = int(sp.Hosts[0])
		}
		out[i] = core.Split{Payload: sp, PreferredNode: pref}
	}
	return out, nil
}

func (l *hdfsLoader) Load(sp core.Split, ctx core.Context) error {
	fs := ctx.Service(ServiceHDFS).(*hdfs.FileSystem)
	it, err := fs.OpenLines(sp.Payload.(hdfs.Split), transport.NodeID(ctx.Node()))
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		line, _, ok := it.Next()
		if !ok {
			return it.Err()
		}
		if err := ctx.Emit(core.KV{Value: line}); err != nil {
			return err
		}
	}
}

type splitter struct{}

func (splitter) Map(kv core.KV, ctx core.Context) error {
	for _, w := range strings.Fields(kv.Value.(string)) {
		if err := ctx.Emit(core.KV{Key: w, Value: int64(1)}); err != nil {
			return err
		}
	}
	return nil
}

type summer struct{}

func (summer) Update(key string, state, value any) (any, error) {
	if state == nil {
		return value, nil
	}
	return state.(int64) + value.(int64), nil
}

func (summer) Finish(key string, state any, ctx core.Context) error {
	return ctx.Emit(core.KV{Key: key, Value: state})
}

func (summer) Reduce(key string, values []any, ctx core.Context) error {
	var n int64
	for _, v := range values {
		n += v.(int64)
	}
	return ctx.Emit(core.KV{Key: key, Value: n})
}

// linesLoader plans a fixed number of splits and deals the lines across
// them round-robin, so the emitted corpus is deterministic regardless of
// which node runs which split.
type linesLoader struct {
	lines  []string
	splits int
}

func (l *linesLoader) Plan(env *core.Env) ([]core.Split, error) {
	out := make([]core.Split, l.splits)
	for i := range out {
		out[i] = core.Split{Payload: i, PreferredNode: i % env.NumNodes}
	}
	return out, nil
}

func (l *linesLoader) Load(sp core.Split, ctx core.Context) error {
	idx := sp.Payload.(int)
	for j := idx; j < len(l.lines); j += l.splits {
		if err := ctx.Emit(core.KV{Value: l.lines[j]}); err != nil {
			return err
		}
	}
	return nil
}

// testCorpus is word-count input with a deterministic shape.
func testCorpus(lines int) []string {
	words := []string{"ant", "bee", "cat", "dog", "elk", "fox"}
	out := make([]string, lines)
	for i := range out {
		out[i] = words[i%len(words)] + " " + words[(i*7+3)%len(words)] + " " + words[(i*3+1)%len(words)]
	}
	return out
}

// corpusCounts is the word count of corpus, computed directly.
func corpusCounts(corpus []string) map[string]int64 {
	want := map[string]int64{}
	for _, line := range corpus {
		for _, w := range strings.Fields(line) {
			want[w]++
		}
	}
	return want
}

// wordGraph builds a loader→map→partial-reduce→sink word count over the
// given corpus. Every call builds a fresh graph (sinks are per-job).
func wordGraph(t testing.TB, corpus []string, splits int) (*core.Graph, *core.CollectSink) {
	t.Helper()
	g := core.NewGraph("wc")
	sink := core.NewCollectSink()
	ld, err := g.AddLoader("load", &linesLoader{lines: corpus, splits: splits})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := g.AddMap("split", splitter{})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := g.AddPartialReduce("count", summer{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := g.AddSink("out", sink)
	if err != nil {
		t.Fatal(err)
	}
	g.Connect(ld, mp)
	g.Connect(mp, pr)
	g.Connect(pr, sk)
	return g, sink
}

func sinkCounts(sink *core.CollectSink) map[string]int64 {
	got := map[string]int64{}
	for _, kv := range sink.Pairs() {
		got[kv.Key] += kv.Value.(int64)
	}
	return got
}

// slowLoader emits pairs until canceled, signaling once the first emit
// landed so a test can cancel genuinely mid-load.
type slowLoader struct {
	started   chan struct{}
	startOnce sync.Once
}

func (l *slowLoader) Plan(env *core.Env) ([]core.Split, error) {
	out := make([]core.Split, env.NumNodes)
	for i := range out {
		out[i] = core.Split{Payload: i, PreferredNode: i}
	}
	return out, nil
}

func (l *slowLoader) Load(sp core.Split, ctx core.Context) error {
	for i := 0; i < 20000; i++ {
		if err := ctx.Emit(core.KV{Key: fmt.Sprintf("k%d", i%32), Value: int64(1)}); err != nil {
			return err
		}
		l.startOnce.Do(func() { close(l.started) })
		time.Sleep(time.Millisecond)
	}
	return nil
}

func slowGraph(t testing.TB, ld *slowLoader) *core.Graph {
	t.Helper()
	g := core.NewGraph("slow")
	l, err := g.AddLoader("load", ld)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := g.AddPartialReduce("count", summer{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := g.AddReduce("group", summer{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := g.AddSink("out", core.NewCollectSink())
	if err != nil {
		t.Fatal(err)
	}
	g.Connect(l, pr)
	g.Connect(pr, sk)
	g.Connect(l, rd)
	g.Connect(rd, sk)
	return g
}
