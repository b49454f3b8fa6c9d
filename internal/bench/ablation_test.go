package bench

import (
	"fmt"
	"testing"

	"github.com/hamr-go/hamr/internal/apps"
	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
)

// Ablations of the design decisions DESIGN.md §6 calls out, on the real
// clock over the Table 1 cluster, with graphs and inputs from the workload
// table's WordCount and HistogramRatings rows:
//
//	go test -run '^$' -bench Ablation -benchtime 3x ./internal/bench/
//
// runs them at the calibrated small scale, -short at the tiny one.

// ablation is one row's input laid out on a benchmark cluster.
type ablation struct {
	w   *apps.Workload
	env apps.Env
}

// newAblation builds the spec's cluster, tune adjusting the engine's
// configuration first when not nil, and distributes the row's input for a
// run under v.
func newAblation(b *testing.B, name Benchmark, v apps.Variant, tune func(*core.Config)) *ablation {
	b.Helper()
	spec, sc := DefaultSpec(), SmallScale()
	if testing.Short() {
		sc = TinyScale()
	}
	opts := spec.ClusterOptions(nil, nil)
	if tune != nil {
		tune(&opts.Core)
	}
	c, err := cluster.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	w := row(name)
	data := w.Data.Gen(sc)
	env, err := w.HAMREnv(c, data, w.NewRun(sc, data, v))
	if err != nil {
		b.Fatal(err)
	}
	return &ablation{w: w, env: env}
}

// runRow runs the row's own graph b.N times.
func (a *ablation) runRow(b *testing.B) (res *core.JobResult) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, _, err = a.w.RunHAMR(a.env); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// runGraph runs a graph built per iteration by build.
func (a *ablation) runGraph(b *testing.B, build func() *core.Graph) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.env.C.Run(build()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPartialReduce compares partial reduce (early, bounded
// aggregation) against a full reduce (barrier, grouped values) on
// WordCount — the trade-off §2 motivates partial reduce with.
func BenchmarkAblationPartialReduce(b *testing.B) {
	b.Run("PartialReduce", func(b *testing.B) {
		newAblation(b, WordCount, apps.Variant{}, nil).runRow(b)
	})
	b.Run("Reduce", func(b *testing.B) {
		a := newAblation(b, WordCount, apps.Variant{}, nil)
		a.runGraph(b, func() *core.Graph {
			g, _ := buildSpillWordCount(b, a.env.Files)
			return g
		})
	})
}

// BenchmarkAblationBinSize sweeps the scheduling quantum: small bins mean
// more scheduling and per-message overhead, huge bins lose overlap and
// coarsen flow control.
func BenchmarkAblationBinSize(b *testing.B) {
	for _, size := range []int{32, 512, 8192} {
		b.Run(fmt.Sprintf("bin%d", size), func(b *testing.B) {
			newAblation(b, WordCount, apps.Variant{}, func(cfg *core.Config) { cfg.BinSize = size }).runRow(b)
		})
	}
}

// BenchmarkAblationFlowControl runs the skewed HistogramRatings workload
// with and without the flow-control window; without it, producers run
// unthrottled and in-flight data grows unchecked (§2).
func BenchmarkAblationFlowControl(b *testing.B) {
	for _, mode := range []struct {
		name   string
		window int
	}{{"window32", 32}, {"disabled", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			a := newAblation(b, HistogramRatings, apps.Variant{}, func(cfg *core.Config) { cfg.FlowControlWindow = mode.window })
			res := a.runRow(b)
			b.ReportMetric(float64(res.Stalls), "stalls")
			b.ReportMetric(float64(res.Gated), "gated")
		})
	}
}

// BenchmarkAblationSerializedUpdates measures the paper's proposed fix for
// hot shared variables (§5.2): serializing partial-reduce updates on the
// skewed HistogramRatings workload.
func BenchmarkAblationSerializedUpdates(b *testing.B) {
	for _, serialize := range []bool{false, true} {
		b.Run(map[bool]string{false: "striped", true: "serialized"}[serialize], func(b *testing.B) {
			newAblation(b, HistogramRatings, apps.Variant{Serialize: serialize}, nil).runRow(b)
		})
	}
}

// BenchmarkAblationWholeGraphDeployment contrasts the paper's
// whole-graph-per-node deployment (§2, unlike Dryad) against restricting
// the aggregation flowlet to a subset of nodes via a narrowing
// partitioner — fewer nodes share the reduce-side work.
func BenchmarkAblationWholeGraphDeployment(b *testing.B) {
	for _, mode := range []struct {
		name  string
		nodes int // nodes carrying the aggregation (0 = all)
	}{{"wholeGraph", 0}, {"twoNodeSubgraph", 2}} {
		b.Run(mode.name, func(b *testing.B) {
			a := newAblation(b, WordCount, apps.Variant{}, nil)
			a.runGraph(b, func() *core.Graph {
				gr := core.NewGraph("wc")
				ld, _ := gr.AddLoader("load", &hamrapps.LocalTextLoader{Files: a.env.Files})
				mp, _ := gr.AddMap("split", hamrapps.SplitWords{})
				pr, _ := gr.AddPartialReduce("count", hamrapps.SumCounts{})
				sk, _ := gr.AddSink("out", core.NewCountSink())
				gr.Connect(ld, mp, core.WithRouting(core.RouteLocal))
				if mode.nodes > 0 {
					gr.Connect(mp, pr, core.WithPartitioner(func(key string, n int) int {
						return core.HashPartition(key, mode.nodes)
					}))
				} else {
					gr.Connect(mp, pr)
				}
				gr.Connect(pr, sk)
				return gr
			})
		})
	}
}
