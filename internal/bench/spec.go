// Package bench defines and runs the paper's evaluation (§5): the cluster
// specification of Table 1, the eight-benchmark comparison of Table 2 /
// Figure 3, and the combiner ablation of Table 3 — both engines running
// over identical simulated substrates, with inputs scaled down but
// generated with the same distributions the paper used.
package bench

import (
	"time"

	"github.com/hamr-go/hamr/internal/apps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
	"github.com/hamr-go/hamr/internal/vtime"
)

// ClusterSpec is the scaled analogue of Table 1. The paper ran 16 Xeon
// E5-2620 nodes (1 master + 15 workers, 32 hardware threads each, 32 GB
// RAM, SATA-III disks, 4x FDR InfiniBand). A single-machine simulation
// cannot host 15×32 real workers, so the spec scales the node count and
// worker count down while the cost models keep the *relative* price of
// disk, network and job startup at commodity-cluster levels.
type ClusterSpec struct {
	// Workers nodes execute the job (the paper's 15 DataNode/NodeManager
	// machines; the master is implicit in the driver).
	Nodes int
	// Core is the HAMR engine's configuration: workers per node (paper:
	// 32 threads), the per-node in-memory data budget (paper: 32 GB), the
	// flow-control window, the bin size and the contended-update cost.
	Core core.Config
	// Disk and Net are the substrate cost models (paper: SATA-III, FDR).
	Disk storage.CostModel
	Net  transport.CostModel
	// HDFSBlockSize is the scaled block size for the baseline's input.
	HDFSBlockSize int64
	// MapReduce holds the baseline engine's overhead model.
	MapReduce mapreduce.Config
	// VClock runs every benchmark under a virtual clock (internal/vtime):
	// modeled delays advance per-node logical clocks instead of sleeping,
	// so reported IDH/HAMR times are modeled seconds while the suite's
	// wall time collapses to the real compute it does. The default is
	// off — real sleeps, bit-identical to the pre-seam harness.
	VClock bool
}

// DefaultSpec returns the scaled Table 1 configuration used by the
// harness: 8 worker nodes, 4 workers each. The cost models keep Table 1's
// component ratios — SATA-III disks (~150 MB/s per stream, a few streams
// per node) are ~30x slower than the FDR InfiniBand fabric (~4 GB/s per
// receiver) — and TimeScale inflates every data-proportional delay by 30x
// so that MB-scale inputs exercise the same disk-vs-compute balance the
// paper's GB-scale inputs did. ContentionCost is the modeled price of one
// contended shared-variable update (§5.2), calibrated so the
// HistogramRatings inversion appears at this input scale.
func DefaultSpec() ClusterSpec {
	const timeScale = 30.0
	return ClusterSpec{
		Nodes: 8,
		Core: core.Config{
			Workers:           4,
			MemoryBudget:      256 << 20,
			FlowControlWindow: 32,
			BinSize:           512,
			ContentionCost:    12 * time.Microsecond,
		},
		Disk: storage.CostModel{
			SeekLatency:      100 * time.Microsecond,
			ReadBytesPerSec:  150 << 20,
			WriteBytesPerSec: 120 << 20,
			TimeScale:        timeScale,
			Parallel:         2,
		},
		Net: transport.CostModel{
			Latency:     2 * time.Microsecond,
			BytesPerSec: 4 << 30,
			TimeScale:   timeScale,
		},
		HDFSBlockSize: 256 << 10,
		MapReduce: mapreduce.Config{
			SortBufferBytes: 1 << 20,
			ReduceHeapBytes: 4 << 20,
			JobStartup:      80 * time.Millisecond,
			TaskStartup:     3 * time.Millisecond,
		},
	}
}

// CoreConfig is the HAMR engine configuration: s.Core.
func (s ClusterSpec) CoreConfig() core.Config { return s.Core }

// ClusterOptions is the benchmark cluster: the spec's nodes, cost models,
// and block size, paying modeled delays to clk and recording into tr
// (either may be nil). Both harness clusters are built from it, so the two
// engines cannot be handed different substrates.
// benchmark/runner.go's clusterOptions is a copy of this literal, to be
// retired by a benchmark PR.
func (s ClusterSpec) ClusterOptions(clk vtime.Clock, tr *trace.Tracer) cluster.Options {
	return cluster.Options{
		NumNodes:      s.Nodes,
		Core:          s.Core,
		DiskModel:     &s.Disk,
		NetModel:      &s.Net,
		HDFSBlockSize: s.HDFSBlockSize,
		Clock:         clk,
		Trace:         tr,
	}
}

// Scale fixes the benchmark input sizes; the workload table's generators
// read it.
type Scale = apps.Scale

// SmallScale finishes the whole Table 2 in roughly a minute on one
// machine; shapes (who wins, by what factor) already hold at this size.
func SmallScale() Scale {
	return Scale{
		// Sizes keep the paper's rough proportions: K-Means/Classification
		// at "300GB" are the largest, histograms at "30GB" next, WordCount
		// "16GB", NaiveBayes "10GB", PageRank "20GB" of web graph, and the
		// deliberately small "168MB" K-Cliques graph.
		KMeansMovies:    60000,
		KMeansUsers:     150,
		HistogramMovies: 40000,
		HistogramUsers:  150,
		WordCountLines:  60000,
		WordCountVocab:  4000,
		NaiveBayesDocs:  20000,
		PageRankPages:   1500,
		PageRankIters:   3,
		KCliquesScale:   8,
		KCliquesEdges:   1200,
		KCliquesK:       3,
		KClusters:       4,
		Reduces:         8,
	}
}

// TinyScale is for tests: seconds, not minutes.
func TinyScale() Scale {
	s := SmallScale()
	s.KMeansMovies = 400
	s.HistogramMovies = 600
	s.WordCountLines = 1200
	s.NaiveBayesDocs = 400
	s.PageRankPages = 250
	s.PageRankIters = 2
	s.KCliquesScale = 6
	s.KCliquesEdges = 300
	return s
}

// Benchmark identifies one Table 2 row; the rows themselves are apps.Table.
// The names below are the ones code outside the table still spells out: the
// ordering check and the ablations here, the benchmark module's workloads.
type Benchmark = apps.Benchmark

const (
	KMeans           = apps.KMeans
	PageRank         = apps.PageRank
	WordCount        = apps.WordCount
	HistogramRatings = apps.HistogramRatings
)

// PaperTable2 is the numbers printed in Table 2, by row.
var PaperTable2 = func() map[Benchmark]apps.PaperRow {
	m := make(map[Benchmark]apps.PaperRow, len(apps.Table))
	for _, w := range apps.Table {
		m[w.Name] = w.Paper
	}
	return m
}()

// Row is one measured Table 2 / Table 3 entry: what each engine's run of
// the row measured, side by side.
type Row struct {
	Benchmark Benchmark
	DataSize  string // the paper's size label
	MR, HAMR  Side
	Speedup   float64 // MR.Time over HAMR.Time
	Paper     apps.PaperRow
	// Modeled marks rows measured under the virtual clock.
	Modeled bool
}

// Side is what one engine's run of a row measured.
type Side struct {
	// Time is what the tables report: modeled seconds from the logical
	// clocks under -vclock, the wall time otherwise.
	Time time.Duration
	// Wall is what producing the side actually took.
	Wall time.Duration
	// Imbalance is, on a modeled row, the largest node lane's advance over
	// the mean node lane's advance across the timed interval. Modeled
	// elapsed time is set by the largest lane, so 1.0 says the nodes
	// shared the work and N says one node of N did it all while the rest
	// idled — a funnel (or the paper's §5.2 hot keys) that the
	// per-resource sums cannot show. 0 on the real clock.
	Imbalance float64
	// Metrics is the run's cluster-wide snapshot, taken before the answer
	// is read: substrate counters accounted outside any job (the fabric's
	// net.bytes, bins.dropped) as well as every job's own.
	Metrics metrics.Snapshot
	// Trace is the run's timeline when Harness.Trace is set.
	Trace []*trace.Event
}
