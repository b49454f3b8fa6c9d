package hamr

// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus ablations of the design decisions DESIGN.md calls out.
//
//	go test -bench=Table2 -benchtime=1x
//	go test -bench=. -benchmem
//
// Benchmarks default to the tiny input scale so a full -bench=. pass stays
// in CI territory; set HAMR_BENCH_SCALE=small to run at the harness's
// calibrated scale (the one cmd/hamrbench uses, where the Table 2 shape
// checks hold). Speedups are attached to figure benchmarks via
// b.ReportMetric as "paperx" (published) and "x" (measured).

import (
	"os"
	"testing"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/bench"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
)

func benchScale() bench.Scale {
	if os.Getenv("HAMR_BENCH_SCALE") == "small" {
		return bench.SmallScale()
	}
	return bench.TinyScale()
}

func newHarness(b *testing.B) *bench.Harness {
	b.Helper()
	return bench.NewHarness(bench.DefaultSpec(), benchScale())
}

// BenchmarkTable1ClusterBringup measures standing up and tearing down the
// Table 1 cluster (nodes, runtimes, fabric, HDFS, kv-store, YARN).
func BenchmarkTable1ClusterBringup(b *testing.B) {
	spec := bench.DefaultSpec()
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Options{
			NumNodes:  spec.Nodes,
			Core:      spec.CoreConfig(),
			DiskModel: &spec.Disk,
			NetModel:  &spec.Net,
		})
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

// BenchmarkTable2 regenerates Table 2: every benchmark on both engines.
// Sub-benchmark names follow Table 2's row order.
func BenchmarkTable2(b *testing.B) {
	h := newHarness(b)
	for _, bm := range bench.AllBenchmarks {
		bm := bm
		b.Run(string(bm)+"/IDH", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.RunMR(bm); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(string(bm)+"/HAMR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.RunHAMR(bm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Combiner regenerates Table 3: the histogram benchmarks
// with the HAMR combiner enabled.
func BenchmarkTable3Combiner(b *testing.B) {
	h := newHarness(b)
	for _, bm := range []bench.Benchmark{bench.HistogramMovies, bench.HistogramRatings} {
		bm := bm
		b.Run(string(bm), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := h.RunHAMRCombiner(bm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchFigure(b *testing.B, benchmarks []bench.Benchmark) {
	h := newHarness(b)
	for _, bm := range benchmarks {
		bm := bm
		b.Run(string(bm), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				row, err := h.RunRow(bm)
				if err != nil {
					b.Fatal(err)
				}
				speedup = row.Speedup
			}
			b.ReportMetric(speedup, "x")
			b.ReportMetric(bench.PaperTable2[bm].Speedup, "paperx")
		})
	}
}

// BenchmarkFigure3a regenerates Figure 3(a): speedups of the
// feature-exploiting benchmarks.
func BenchmarkFigure3a(b *testing.B) { benchFigure(b, bench.Figure3aBenchmarks) }

// BenchmarkFigure3b regenerates Figure 3(b): speedups of the IO-intensive
// benchmarks.
func BenchmarkFigure3b(b *testing.B) { benchFigure(b, bench.Figure3bBenchmarks) }

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §6)

func ablationCluster(b *testing.B, cfg core.Config) (*cluster.Cluster, map[int][]string) {
	b.Helper()
	spec := bench.DefaultSpec()
	c, err := cluster.New(cluster.Options{
		NumNodes:  spec.Nodes,
		Core:      cfg,
		DiskModel: &spec.Disk,
		NetModel:  &spec.Net,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	sc := benchScale()
	data := datagen.Text(datagen.TextConfig{Seed: 7, Vocabulary: sc.WordCountVocab, Lines: sc.WordCountLines})
	files, err := hamrapps.DistributeLocalText(c, "ablation", data, 2*spec.Nodes)
	if err != nil {
		b.Fatal(err)
	}
	return c, files
}

func runWordCountOn(b *testing.B, c *cluster.Cluster, files map[int][]string, partial bool) {
	b.Helper()
	loader := &hamrapps.LocalTextLoader{Files: files}
	var g *core.Graph
	var err error
	if partial {
		g, _, err = hamrapps.BuildWordCount(hamrapps.WordCountOptions{Loader: loader})
	} else {
		gr := core.NewGraph("wordcount-reduce")
		sink := core.NewCollectSink()
		ld, _ := gr.AddLoader("load", loader)
		mp, _ := gr.AddMap("split", hamrapps.SplitWords{})
		rd, _ := gr.AddReduce("count", reduceSum{})
		sk, _ := gr.AddSink("out", sink)
		gr.Connect(ld, mp, core.WithRouting(core.RouteLocal))
		gr.Connect(mp, rd)
		gr.Connect(rd, sk)
		g = gr
	}
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Run(g); err != nil {
		b.Fatal(err)
	}
}

type reduceSum struct{}

func (reduceSum) Reduce(key string, values []any, ctx core.Context) error {
	var total int64
	for _, v := range values {
		total += v.(int64)
	}
	return ctx.Emit(core.KV{Key: key, Value: total})
}

// BenchmarkAblationPartialReduce compares partial reduce (early, bounded
// aggregation) against a full reduce (barrier, grouped values) on
// WordCount — the trade-off §2 motivates partial reduce with.
func BenchmarkAblationPartialReduce(b *testing.B) {
	spec := bench.DefaultSpec()
	for _, mode := range []struct {
		name    string
		partial bool
	}{{"PartialReduce", true}, {"Reduce", false}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			c, files := ablationCluster(b, spec.CoreConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runWordCountOn(b, c, files, mode.partial)
			}
		})
	}
}

// BenchmarkAblationBinSize sweeps the scheduling quantum: small bins mean
// more scheduling and per-message overhead, huge bins lose overlap and
// coarsen flow control.
func BenchmarkAblationBinSize(b *testing.B) {
	spec := bench.DefaultSpec()
	for _, size := range []int{32, 512, 8192} {
		size := size
		b.Run(map[int]string{32: "bin32", 512: "bin512", 8192: "bin8192"}[size], func(b *testing.B) {
			cfg := spec.CoreConfig()
			cfg.BinSize = size
			c, files := ablationCluster(b, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runWordCountOn(b, c, files, true)
			}
		})
	}
}

// BenchmarkAblationFlowControl runs the skewed HistogramRatings workload
// with and without the flow-control window; without it, producers run
// unthrottled and in-flight data grows unchecked (§2).
func BenchmarkAblationFlowControl(b *testing.B) {
	spec := bench.DefaultSpec()
	sc := benchScale()
	data := datagen.Movies(datagen.MoviesConfig{Seed: 3, Movies: sc.HistogramMovies, Users: sc.HistogramUsers})
	for _, mode := range []struct {
		name   string
		window int
	}{{"window32", 32}, {"disabled", 0}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			cfg := spec.CoreConfig()
			cfg.FlowControlWindow = mode.window
			c, _ := ablationCluster(b, cfg)
			files, err := hamrapps.DistributeLocalText(c, "hr", data, 2*spec.Nodes)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, _, err := hamrapps.BuildHistogramRatings(hamrapps.HistogramOptions{
					Loader: &hamrapps.LocalTextLoader{Files: files},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.Run(g)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Stalls), "stalls")
					b.ReportMetric(float64(res.Gated), "gated")
				}
			}
		})
	}
}

// BenchmarkAblationSerializedUpdates measures the paper's proposed fix for
// hot shared variables (§5.2): serializing partial-reduce updates on the
// skewed HistogramRatings workload.
func BenchmarkAblationSerializedUpdates(b *testing.B) {
	spec := bench.DefaultSpec()
	sc := benchScale()
	data := datagen.Movies(datagen.MoviesConfig{Seed: 3, Movies: sc.HistogramMovies, Users: sc.HistogramUsers})
	for _, mode := range []struct {
		name      string
		serialize bool
	}{{"striped", false}, {"serialized", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			c, _ := ablationCluster(b, spec.CoreConfig())
			files, err := hamrapps.DistributeLocalText(c, "hr", data, 2*spec.Nodes)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, _, err := hamrapps.BuildHistogramRatings(hamrapps.HistogramOptions{
					Loader:           &hamrapps.LocalTextLoader{Files: files},
					SerializeUpdates: mode.serialize,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Run(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWholeGraphDeployment contrasts the paper's
// whole-graph-per-node deployment (§2, unlike Dryad) against restricting
// the aggregation flowlet to a subset of nodes via a narrowing
// partitioner — fewer nodes share the reduce-side work.
func BenchmarkAblationWholeGraphDeployment(b *testing.B) {
	spec := bench.DefaultSpec()
	for _, mode := range []struct {
		name  string
		nodes int // nodes carrying the aggregation (0 = all)
	}{{"wholeGraph", 0}, {"twoNodeSubgraph", 2}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			c, files := ablationCluster(b, spec.CoreConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gr := core.NewGraph("wc")
				sink := core.NewCountSink()
				ld, _ := gr.AddLoader("load", &hamrapps.LocalTextLoader{Files: files})
				mp, _ := gr.AddMap("split", hamrapps.SplitWords{})
				pr, _ := gr.AddPartialReduce("count", hamrapps.SumCounts{})
				sk, _ := gr.AddSink("out", sink)
				gr.Connect(ld, mp, core.WithRouting(core.RouteLocal))
				if mode.nodes > 0 {
					sub := mode.nodes
					gr.Connect(mp, pr, core.WithPartitioner(func(key string, n int) int {
						return core.HashPartition(key, sub)
					}))
				} else {
					gr.Connect(mp, pr)
				}
				gr.Connect(pr, sk)
				if _, err := c.Run(gr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
