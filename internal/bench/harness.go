package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/vtime"
)

// Harness generates the benchmark inputs once and runs each benchmark on
// either engine over a fresh cluster built from the spec.
type Harness struct {
	Spec  ClusterSpec
	Scale Scale

	// Trace attaches a span recorder to every cluster the harness builds;
	// the recorder of the most recent run on each engine is kept in
	// LastMRTrace / LastHAMRTrace for export and critical-path analysis.
	// Off by default — the engines' hot paths stay untouched.
	Trace         bool
	LastMRTrace   *trace.Tracer
	LastHAMRTrace *trace.Tracer

	// LastHAMR is the JobResult of the most recent HAMR job run by the
	// harness (the last job if a benchmark chains several). It exposes
	// the engine's hot-path health counters — flow.gated, stalls,
	// bins.dropped — so callers can verify a measurement was not
	// distorted by harness overhead or silent data loss.
	LastHAMR *core.JobResult

	// LastMR is the metrics snapshot of the most recent baseline run's
	// cluster, captured before the cluster is torn down; WriteIOReport
	// renders its HDFS read-path and cache counters.
	LastMR metrics.Snapshot

	// LastHAMRCluster is the cluster-wide metrics snapshot of the most
	// recent HAMR run, captured before teardown. JobResult.Metrics carries
	// only the job's own deltas; substrate counters accounted outside any
	// job — the fabric's net.bytes/net.msgs, bins.dropped — live here.
	LastHAMRCluster metrics.Snapshot

	// LastWall / LastModeled record the most recent run's wall-clock cost
	// and modeled duration. In real-clock mode they are equal; under
	// Spec.VClock the modeled figure comes from the virtual clock's
	// logical lanes and is what RunHAMR/RunMR return.
	LastWall    time.Duration
	LastModeled time.Duration

	// LastBusy decomposes the most recent run's modeled time by resource
	// (virtual-clock runs only; nil in real mode). Busy time is summed
	// across nodes, undivided by parallelism.
	LastBusy map[vtime.Resource]time.Duration

	movies300 []byte // "300GB" movies (K-Means / Classification)
	movies30  []byte // "30GB" movies (Histograms)
	text      []byte
	docs      []byte
	webgraph  []byte
	rmat      []byte
	centroids []hamrapps.Centroid
}

// NewHarness prepares a harness with deterministic datasets.
func NewHarness(spec ClusterSpec, scale Scale) *Harness {
	h := &Harness{Spec: spec, Scale: scale}
	h.movies300 = datagen.Movies(datagen.MoviesConfig{
		Seed: 1001, Movies: scale.KMeansMovies, Users: scale.KMeansUsers,
		Clusters: scale.KClusters,
	})
	h.movies30 = datagen.Movies(datagen.MoviesConfig{
		Seed: 1002, Movies: scale.HistogramMovies, Users: scale.HistogramUsers,
	})
	h.text = datagen.Text(datagen.TextConfig{
		Seed: 1003, Vocabulary: scale.WordCountVocab, Lines: scale.WordCountLines,
	})
	h.docs = datagen.Docs(datagen.DocsConfig{
		Seed: 1004, Docs: scale.NaiveBayesDocs,
	})
	h.webgraph = datagen.WebGraph(datagen.WebGraphConfig{
		Seed: 1005, Pages: scale.PageRankPages,
	})
	h.rmat = datagen.RMAT(datagen.RMATConfig{
		Seed: 1006, Scale: scale.KCliquesScale, Edges: scale.KCliquesEdges,
	})
	h.centroids = datagen.InitialCentroids(h.movies300, scale.KClusters)
	return h
}

// newClock builds the per-run virtual clock when the spec asks for one
// (nil means real clock). Task-startup charges keep a real hold: they
// are issued while the task's YARN container is held, and that hold is
// what spreads sibling allocations across nodes — a scheduling effect a
// purely logical charge cannot reproduce.
//
// Disk charges are deliberately NOT divided by the disk model's stream
// parallelism: with more workers than disk slots the slot pool runs
// saturated and queue wait pushes real per-node disk wall time toward the
// serialized sum, which the undivided lane matches far better across
// Table 2.
func (h *Harness) newClock() *vtime.VirtualClock {
	if !h.Spec.VClock {
		return nil
	}
	vc := vtime.NewVirtual(h.Spec.Nodes)
	vc.SetRealHold(vtime.Startup, true)
	return vc
}

// clusterOptions builds one run's clock (nil vc: the real one), its tracer
// when tracing is on, and the benchmark cluster's options over both.
func (h *Harness) clusterOptions() (opts cluster.Options, vc *vtime.VirtualClock, tr *trace.Tracer) {
	clk := vtime.Real()
	if vc = h.newClock(); vc != nil {
		clk = vc
	}
	if h.Trace {
		tr = trace.New(h.Spec.Nodes, clk)
	}
	return h.Spec.ClusterOptions(clk, tr), vc, tr
}

// measure starts a wall+modeled interval and returns the stop function
// recording both in the harness; the returned duration is the one the
// tables report (modeled under VClock, wall otherwise).
func (h *Harness) measure(vc *vtime.VirtualClock) func() time.Duration {
	start := time.Now()
	var mark vtime.Mark
	if vc != nil {
		mark = vc.Mark()
	}
	return func() time.Duration {
		h.LastWall = time.Since(start)
		h.LastModeled = h.LastWall
		if vc != nil {
			h.LastModeled = vc.Since(mark)
			h.LastBusy = map[vtime.Resource]time.Duration{}
			for _, r := range vtime.Resources() {
				h.LastBusy[r] = vc.Busy(r)
			}
		}
		return h.LastModeled
	}
}

func (h *Harness) data(b Benchmark) []byte {
	switch b {
	case KMeans, Classification:
		return h.movies300
	case HistogramMovies, HistogramRatings:
		return h.movies30
	case WordCount:
		return h.text
	case NaiveBayes:
		return h.docs
	case PageRank:
		return h.webgraph
	case KCliques:
		return h.rmat
	}
	return nil
}

// newHAMRCluster builds a fresh HAMR-side cluster with the spec's cost
// models and distributes the benchmark's input over the node-local disks.
func (h *Harness) newHAMRCluster(b Benchmark) (*cluster.Cluster, map[int][]string, *vtime.VirtualClock, error) {
	return h.newHAMRClusterWith(b, nil)
}

// newHAMRClusterWith is newHAMRCluster with an options hook, letting the
// concurrency mode raise MaxConcurrentJobs before the cluster is built.
func (h *Harness) newHAMRClusterWith(b Benchmark, mutate func(*cluster.Options)) (*cluster.Cluster, map[int][]string, *vtime.VirtualClock, error) {
	opts, vc, tr := h.clusterOptions()
	if tr != nil {
		h.LastHAMRTrace = tr
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := cluster.New(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	files, err := hamrapps.DistributeLocalText(c, string(b), h.data(b), 2*h.Spec.Nodes)
	if err != nil {
		c.Close()
		return nil, nil, nil, err
	}
	return c, files, vc, nil
}

// newMRCluster builds a fresh baseline cluster with the same cost models
// and writes the benchmark's input into HDFS.
func (h *Harness) newMRCluster(b Benchmark) (*cluster.Cluster, *mapreduce.Engine, string, *vtime.VirtualClock, error) {
	opts, vc, tr := h.clusterOptions()
	opts.HDFSCacheMB = h.Spec.HDFSCacheMB
	if tr != nil {
		h.LastMRTrace = tr
	}
	c, err := cluster.New(opts)
	if err != nil {
		return nil, nil, "", nil, err
	}
	path := "in/" + string(b)
	if err := c.FS().WriteFile(path, h.data(b), -1); err != nil {
		c.Close()
		return nil, nil, "", nil, err
	}
	return c, mapreduce.NewEngine(c, h.Spec.MapReduce), path, vc, nil
}

// RunHAMR executes one benchmark on the HAMR engine and returns its
// wall-clock duration.
func (h *Harness) RunHAMR(b Benchmark) (time.Duration, error) {
	return h.runHAMR(b, false)
}

// RunHAMRCombiner executes the Table 3 variant (HAMR with combiner);
// it only differs for the histogram benchmarks.
func (h *Harness) RunHAMRCombiner(b Benchmark) (time.Duration, error) {
	return h.runHAMR(b, true)
}

func (h *Harness) runHAMR(b Benchmark, combiner bool) (time.Duration, error) {
	c, files, vc, err := h.newHAMRCluster(b)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	loader := &hamrapps.LocalTextLoader{Files: files}

	var graphs []*core.Graph
	stop := h.measure(vc)
	switch b {
	case WordCount:
		g, _, err := hamrapps.BuildWordCount(hamrapps.WordCountOptions{Loader: loader, Combiner: combiner})
		if err != nil {
			return 0, err
		}
		graphs = append(graphs, g)
	case HistogramMovies:
		g, _, err := hamrapps.BuildHistogramMovies(hamrapps.HistogramOptions{Loader: loader, Combiner: combiner})
		if err != nil {
			return 0, err
		}
		graphs = append(graphs, g)
	case HistogramRatings:
		g, _, err := hamrapps.BuildHistogramRatings(hamrapps.HistogramOptions{Loader: loader, Combiner: combiner})
		if err != nil {
			return 0, err
		}
		graphs = append(graphs, g)
	case NaiveBayes:
		g, _, err := hamrapps.BuildNaiveBayes(loader)
		if err != nil {
			return 0, err
		}
		graphs = append(graphs, g)
	case KMeans:
		g, _, err := hamrapps.BuildKMeans(hamrapps.KMeansOptions{
			Files: files, Centroids: h.centroids, AssignmentSink: localAssignSink(c, "out/kmeans-assign"),
		})
		if err != nil {
			return 0, err
		}
		graphs = append(graphs, g)
	case Classification:
		g, _, err := hamrapps.BuildClassification(hamrapps.ClassificationOptions{
			Files: files, Centroids: h.centroids, AssignmentSink: localAssignSink(c, "out/classify-assign"),
		})
		if err != nil {
			return 0, err
		}
		graphs = append(graphs, g)
	case PageRank:
		if _, err := hamrapps.RunPageRank(c, loader, 0, h.Scale.PageRankIters); err != nil {
			return 0, err
		}
		elapsed := stop()
		h.LastHAMRCluster = c.Metrics().Snapshot()
		return elapsed, nil
	case KCliques:
		g, _, err := hamrapps.BuildKCliques(h.Scale.KCliquesK, loader)
		if err != nil {
			return 0, err
		}
		graphs = append(graphs, g)
	default:
		return 0, fmt.Errorf("bench: unknown benchmark %q", b)
	}
	for _, g := range graphs {
		res, err := c.Run(g)
		if err != nil {
			return 0, fmt.Errorf("bench: %s on hamr: %w", b, err)
		}
		h.LastHAMR = res
	}
	elapsed := stop()
	h.LastHAMRCluster = c.Metrics().Snapshot()
	return elapsed, nil
}

// localAssignSink writes assignment output to each node's own local disk
// ("output can happen not only in reduce ... but also in map", §3.3) so
// the HAMR side pays the same output-materialization the paper's
// deployment did.
func localAssignSink(c *cluster.Cluster, name string) core.Sink {
	return core.NewFileSink(func(node int) (io.WriteCloser, error) {
		return c.Disk(node).Create(fmt.Sprintf("%s-%02d", name, node))
	}, nil)
}

// RunMR executes one benchmark on the MapReduce baseline (IDH stand-in)
// and returns its wall-clock duration. The histogram and wordcount jobs
// use combiners, as the PUMA implementations do.
func (h *Harness) RunMR(b Benchmark) (time.Duration, error) {
	c, eng, input, vc, err := h.newMRCluster(b)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	r := h.Scale.Reduces

	stop := h.measure(vc)
	switch b {
	case WordCount:
		_, err = eng.Run(mrapps.WordCountJob(input, "out", true, r))
	case HistogramMovies:
		_, err = eng.Run(mrapps.HistogramMoviesJob(input, "out", true, r))
	case HistogramRatings:
		_, err = eng.Run(mrapps.HistogramRatingsJob(input, "out", true, r))
	case NaiveBayes:
		_, err = eng.RunChain(mrapps.NaiveBayesJobs(input, "mid", "out", r)...)
	case KMeans:
		_, err = eng.Run(mrapps.KMeansJob(input, "out", h.centroids, r))
	case Classification:
		_, err = eng.Run(mrapps.ClassificationJob(input, "out", h.centroids, r, true))
	case PageRank:
		_, err = mrapps.RunPageRankMR(eng, c.FS(), input, "work", h.Scale.PageRankIters, r)
	case KCliques:
		_, err = mrapps.RunKCliquesMR(eng, c.FS(), input, "work", h.Scale.KCliquesK, r)
	default:
		err = fmt.Errorf("bench: unknown benchmark %q", b)
	}
	if err != nil {
		return 0, fmt.Errorf("bench: %s on mapreduce: %w", b, err)
	}
	elapsed := stop()
	h.LastMR = c.Metrics().Snapshot()
	return elapsed, nil
}

// RunRow measures one Table 2 row (both engines).
func (h *Harness) RunRow(b Benchmark) (Row, error) {
	idh, err := h.RunMR(b)
	if err != nil {
		return Row{}, err
	}
	idhWall := h.LastWall
	hamr, err := h.RunHAMR(b)
	if err != nil {
		return Row{}, err
	}
	paper := PaperTable2[b]
	return Row{
		Benchmark: b,
		DataSize:  paper.DataSize,
		IDH:       idh,
		HAMR:      hamr,
		Speedup:   idh.Seconds() / hamr.Seconds(),
		Paper:     paper,
		IDHWall:   idhWall,
		HAMRWall:  h.LastWall,
		Modeled:   h.Spec.VClock,
	}, nil
}

// Table2 measures every row.
func (h *Harness) Table2() ([]Row, error) {
	rows := make([]Row, 0, len(AllBenchmarks))
	for _, b := range AllBenchmarks {
		row, err := h.RunRow(b)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3 measures the combiner ablation (HAMR with combiner vs the same
// IDH baseline).
func (h *Harness) Table3() ([]Row, error) {
	var rows []Row
	for _, b := range []Benchmark{HistogramMovies, HistogramRatings} {
		idh, err := h.RunMR(b)
		if err != nil {
			return rows, err
		}
		idhWall := h.LastWall
		hamr, err := h.RunHAMRCombiner(b)
		if err != nil {
			return rows, err
		}
		paper := PaperTable3[b]
		rows = append(rows, Row{
			Benchmark: b,
			DataSize:  paper.DataSize,
			IDH:       idh,
			HAMR:      hamr,
			Speedup:   idh.Seconds() / hamr.Seconds(),
			Paper:     paper,
			IDHWall:   idhWall,
			HAMRWall:  h.LastWall,
			Modeled:   h.Spec.VClock,
		})
	}
	return rows, nil
}

// Figure3 selects the subset of rows for one of the two speedup figures.
func Figure3(rows []Row, panel string) []Row {
	var want []Benchmark
	switch panel {
	case "3a", "a":
		want = Figure3aBenchmarks
	default:
		want = Figure3bBenchmarks
	}
	var out []Row
	for _, b := range want {
		for _, r := range rows {
			if r.Benchmark == b {
				out = append(out, r)
			}
		}
	}
	return out
}
