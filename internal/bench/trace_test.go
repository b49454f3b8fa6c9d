package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/vtime"
)

// Traces recorded on the virtual clock must be deterministic: two -vclock
// runs of the same placement-pinned workload have to produce byte-identical
// Chrome trace JSON, and a real-clock run must produce the same span tree
// (ids, phases, parents, nodes, byte counts) with only the timestamps
// differing. The configurations here pin every scheduling decision: one
// input block on node 0, a single reduce task, one worker per node, and
// (for the flowlet engine) no network cost model so delivery timing cannot
// mint extra spans.

type traceRun struct {
	json []byte
	tree string
}

func captureTrace(t *testing.T, tr *trace.Tracer) traceRun {
	t.Helper()
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no trace events recorded")
	}
	// Events sorts by ID before anything else, so the exported timeline is
	// canonical only while an ID names one event.
	seen := make(map[string]bool, len(evs))
	for _, ev := range evs {
		if seen[ev.ID] {
			t.Errorf("two events share the ID %q", ev.ID)
		}
		seen[ev.ID] = true
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, evs); err != nil {
		t.Fatal(err)
	}
	return traceRun{json: buf.Bytes(), tree: trace.Tree(evs)}
}

// runMRTimeline runs a pinned WordCount on the baseline engine under the
// given clock (nil = real) and returns its recorded timeline.
func runMRTimeline(t *testing.T, vc *vtime.VirtualClock) traceRun {
	t.Helper()
	diskM, netM := invariantModels()
	opts := cluster.Options{
		NumNodes:      2,
		DiskModel:     diskM,
		NetModel:      netM,
		HDFSBlockSize: 1 << 20, // one block -> one split -> one serial map task
		YarnMemMB:     1 << 20,
	}
	clk := vtime.Clock(vtime.Real())
	if vc != nil {
		opts.Clock = vc
		clk = vc
	}
	tr := trace.New(opts.NumNodes, clk)
	opts.Trace = tr
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	input := datagen.Text(datagen.TextConfig{Seed: 29, Vocabulary: 120, Lines: 400})
	if err := c.FS().WriteFile("in/words", input, 0); err != nil {
		t.Fatal(err)
	}
	eng := mapreduce.NewEngine(c, mapreduce.Config{
		SortBufferBytes: 2 << 10,
		MergeFactor:     2,
	})
	if _, err := eng.Run(mrapps.WordCountJob("in/", "out", false, 1)); err != nil {
		t.Fatal(err)
	}
	return captureTrace(t, tr)
}

// runHAMRTimeline runs a pinned WordCount on the flowlet engine under the
// given clock and returns its recorded timeline. Every loader file lives on
// node 0 so split placement and worker order cannot vary between runs.
func runHAMRTimeline(t *testing.T, vc *vtime.VirtualClock) traceRun {
	t.Helper()
	diskM, _ := invariantModels()
	opts := cluster.Options{
		NumNodes:  2,
		DiskModel: diskM,
		Core: core.Config{
			Workers:      1,
			MemoryBudget: 1 << 30,
		},
	}
	clk := vtime.Clock(vtime.Real())
	if vc != nil {
		opts.Clock = vc
		clk = vc
	}
	tr := trace.New(opts.NumNodes, clk)
	opts.Trace = tr
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	input := datagen.Text(datagen.TextConfig{Seed: 29, Vocabulary: 120, Lines: 400})
	// A single loader file on node 0: with several splits the lone worker
	// picks them up in scheduler order, which would shuffle their
	// virtual-lane timestamps between runs.
	if err := c.WriteLocalText(0, "input/tracewc-part-0000", input); err != nil {
		t.Fatal(err)
	}
	g, _, err := hamrapps.BuildWordCount(hamrapps.WordCountOptions{
		Loader: &hamrapps.LocalTextLoader{
			Files: map[int][]string{0: {"input/tracewc-part-0000"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	return captureTrace(t, tr)
}

// TestTraceDeterministicTimelineMR: two virtual-clock runs of the pinned
// baseline WordCount are byte-identical down to the exported JSON, and a
// real-clock run records the same span tree modulo timestamps.
func TestTraceDeterministicTimelineMR(t *testing.T) {
	v1 := runMRTimeline(t, vtime.NewVirtual(2))
	v2 := runMRTimeline(t, vtime.NewVirtual(2))
	if !bytes.Equal(v1.json, v2.json) {
		t.Errorf("virtual-clock trace JSON differs across runs:\n--- run 1\n%s\n--- run 2\n%s", v1.json, v2.json)
	}
	real := runMRTimeline(t, nil)
	if real.tree != v1.tree {
		t.Errorf("real-clock span tree differs from virtual:\n--- real\n%s\n--- virtual\n%s", real.tree, v1.tree)
	}
}

// TestTraceDeterministicTimelineHAMR: flowlet-engine counterpart.
func TestTraceDeterministicTimelineHAMR(t *testing.T) {
	v1 := runHAMRTimeline(t, vtime.NewVirtual(2))
	v2 := runHAMRTimeline(t, vtime.NewVirtual(2))
	if !bytes.Equal(v1.json, v2.json) {
		t.Errorf("virtual-clock trace JSON differs across runs:\n--- run 1\n%s\n--- run 2\n%s", v1.json, v2.json)
	}
	real := runHAMRTimeline(t, nil)
	if real.tree != v1.tree {
		t.Errorf("real-clock span tree differs from virtual:\n--- real\n%s\n--- virtual\n%s", real.tree, v1.tree)
	}
}

// ---- overlap regression (the paper's core scheduling claim) ----

// teraCutFlowlet is the flowlet-engine TeraSort mapper: cut the sort key
// off a teraLines row, as teraSortJob's mapper does.
type teraCutFlowlet struct{}

func (teraCutFlowlet) Map(kv core.KV, ctx core.Context) error {
	k, v, _ := strings.Cut(kv.Value.(string), " ")
	return ctx.Emit(core.KV{Key: k, Value: v})
}

// teraOrderReducer is the flowlet-engine TeraSort reduce: a full
// (accumulating) reduce, so ordering falls out of the engine's key-ordered
// reduce and the timeline records accumulate windows — the overlap the
// paper claims for the flowlet design.
type teraOrderReducer struct{}

func (teraOrderReducer) Reduce(key string, values []any, ctx core.Context) error {
	for _, v := range values {
		if err := ctx.Emit(core.KV{Key: key, Value: v}); err != nil {
			return err
		}
	}
	return nil
}

// TestTraceOverlapRegression records TeraSort on both engines with the real
// clock and mild cost models, then checks the paper's scheduling claim in
// the timelines themselves: the flowlet engine's reduce-side work overlaps
// its load phase strictly more than the baseline's reduce side overlaps its
// map phase, and the baseline's timeline contains a map->reduce barrier
// that the flowlet timeline lacks.
func TestTraceOverlapRegression(t *testing.T) {
	diskM, netM := invariantModels()

	// ---- baseline engine ----
	mrOpts := cluster.Options{
		NumNodes:      3,
		DiskModel:     diskM,
		NetModel:      netM,
		HDFSBlockSize: 4 << 10,
		YarnMemMB:     1 << 20,
	}
	mtr := trace.New(mrOpts.NumNodes, vtime.Real())
	mrOpts.Trace = mtr
	mc, err := cluster.New(mrOpts)
	if err != nil {
		t.Fatal(err)
	}
	input := teraLines(3000)
	if err := mc.FS().WriteFile("in/tera", input, -1); err != nil {
		t.Fatal(err)
	}
	eng := mapreduce.NewEngine(mc, mapreduce.Config{
		SortBufferBytes: 4 << 10,
		MergeFactor:     2,
	})
	if _, err := eng.Run(teraSortJob("in/", "out", 3)); err != nil {
		t.Fatal(err)
	}
	mrEvs := mtr.Events()
	mc.Close()

	mapSide := []string{"map", "spill", "merge"}
	reduceSide := []string{"reduce", "fetch", "shuffle"}
	mrOverlap := trace.OverlapFraction(mrEvs, mapSide, reduceSide)
	if gap, ok := trace.BarrierGap(mrEvs, mapSide, reduceSide); !ok {
		t.Errorf("MR timeline lacks the map->reduce barrier (gap=%v ok=%v)", gap, ok)
	}

	// ---- flowlet engine ----
	hOpts := cluster.Options{
		NumNodes:  3,
		DiskModel: diskM,
		NetModel:  netM,
		Core: core.Config{
			// More workers than load splits per node, and bins small
			// enough to flush mid-load: the spare workers apply shuffled
			// bins while the loaders are still running, which is exactly
			// the overlap this test measures.
			Workers:      4,
			BinSize:      64,
			MemoryBudget: 1 << 30,
		},
	}
	htr := trace.New(hOpts.NumNodes, vtime.Real())
	hOpts.Trace = htr
	hc, err := cluster.New(hOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	files, err := hamrapps.DistributeLocalText(hc, "tracetera", input, 6)
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph("tracetera")
	sink := core.NewCollectSink()
	ld, err := g.AddLoader("load", &hamrapps.LocalTextLoader{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := g.AddMap("cut", teraCutFlowlet{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := g.AddReduce("order", teraOrderReducer{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := g.AddSink("out", sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(ld, mp, core.WithRouting(core.RouteLocal)); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(mp, rd, core.WithRouting(core.RouteShuffle)); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(rd, sk); err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Run(g); err != nil {
		t.Fatal(err)
	}
	hEvs := htr.Events()

	loadSide := []string{"load"}
	accSide := []string{"accumulate", "reduce"}
	hOverlap := trace.OverlapFraction(hEvs, loadSide, accSide)
	if hOverlap <= mrOverlap {
		t.Errorf("flowlet overlap %.3f does not exceed baseline overlap %.3f", hOverlap, mrOverlap)
	}
	if gap, ok := trace.BarrierGap(hEvs, loadSide, accSide); ok {
		t.Errorf("flowlet timeline shows a load->accumulate barrier (gap=%v); reduce-side work should begin while loaders run", gap)
	}
}
