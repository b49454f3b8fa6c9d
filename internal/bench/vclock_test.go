package bench

import (
	"runtime"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/apps"
	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/transport"
	"github.com/hamr-go/hamr/internal/vtime"
)

// The virtual clock must change how modeled delays are *paid*, never
// what the engines *do*: outputs and byte counters have to be identical
// between a real-clock and a virtual-clock run of the same workload.
// The configurations here are placement-deterministic (single reduce
// task, oversized YARN memory, one worker per node) so
// the comparison is exact (the rule in invariance_test.go's header).
// Unlike TestInvariance's vclock variants, the cost models here charge.

// invariantModels returns mild but non-zero cost models, so the real
// run actually sleeps and the virtual run actually charges.
func invariantModels() (*storage.CostModel, *transport.CostModel) {
	return &storage.CostModel{
			SeekLatency:      20 * time.Microsecond,
			ReadBytesPerSec:  150 << 20,
			WriteBytesPerSec: 120 << 20,
			TimeScale:        1,
		}, &transport.CostModel{
			Latency:     2 * time.Microsecond,
			BytesPerSec: 4 << 30,
			TimeScale:   1,
		}
}

// runMRInvariant runs a spill-heavy WordCount on the baseline engine
// under the given clock (nil = real) and returns the output hash, the
// counter line and the modeled elapsed time.
func runMRInvariant(t *testing.T, vc *vtime.VirtualClock) (string, string, time.Duration) {
	t.Helper()
	diskM, netM := invariantModels()
	opts := cluster.Options{
		NumNodes:      3,
		DiskModel:     diskM,
		NetModel:      netM,
		HDFSBlockSize: 4 << 10,
		YarnMemMB:     1 << 20,
	}
	if vc != nil {
		opts.Clock = vc
	}
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	input := datagen.Text(datagen.TextConfig{Seed: 23, Vocabulary: 150, Lines: 700})
	if err := c.FS().WriteFile("in/words", input, -1); err != nil {
		t.Fatal(err)
	}
	eng := mapreduce.NewEngine(c, mapreduce.Config{
		SortBufferBytes: 2 << 10,
		MergeFactor:     2,
		JobStartup:      5 * time.Millisecond,
		TaskStartup:     500 * time.Microsecond,
	})
	var mark vtime.Mark
	if vc != nil {
		mark = vc.Mark()
	}
	if _, err := eng.Run(mrapps.WordCountJob("in/", "out", false, 1)); err != nil {
		t.Fatal(err)
	}
	var modeled time.Duration
	if vc != nil {
		modeled = vc.Since(mark)
	}
	return hashHDFS(t, c, "out/"), counterLine(c.Metrics(), mrCounters), modeled
}

// runHAMRInvariant runs a spill-heavy WordCount on the flowlet engine
// (one worker per node, contention model on) under the
// given clock and returns the output hash, counter line and modeled
// elapsed time.
func runHAMRInvariant(t *testing.T, vc *vtime.VirtualClock) (string, string, time.Duration) {
	t.Helper()
	diskM, netM := invariantModels()
	opts := cluster.Options{
		NumNodes:  3,
		DiskModel: diskM,
		NetModel:  netM,
		Core: core.Config{
			Workers:        1,
			MemoryBudget:   4 << 10,
			ContentionCost: 5 * time.Microsecond,
		},
	}
	if vc != nil {
		opts.Clock = vc
	}
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	input := datagen.Text(datagen.TextConfig{Seed: 23, Vocabulary: 150, Lines: 700})
	files, err := hamrapps.DistributeLocalText(c, "wc", input, 6)
	if err != nil {
		t.Fatal(err)
	}
	g, sink, err := hamrapps.BuildWordCount(hamrapps.WordCountOptions{
		Loader: &hamrapps.LocalTextLoader{Files: files},
	})
	if err != nil {
		t.Fatal(err)
	}
	var mark vtime.Mark
	if vc != nil {
		mark = vc.Mark()
	}
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	var modeled time.Duration
	if vc != nil {
		modeled = vc.Since(mark)
	}
	counters := counterLine(c.Metrics(), []string{
		"reduce.spills", "reduce.spill.bytes",
		"disk.read.bytes", "disk.write.bytes", "net.bytes",
	})
	return hashPairs(sink), counters, modeled
}

// TestMRInvariantRealVsVirtual: same outputs and byte counters under
// either clock, and identical modeled times across two virtual runs.
func TestMRInvariantRealVsVirtual(t *testing.T) {
	realHash, realCounters, _ := runMRInvariant(t, nil)
	v1Hash, v1Counters, v1Modeled := runMRInvariant(t, vtime.NewVirtual(3))
	if v1Hash != realHash {
		t.Errorf("output hash differs: real %s virtual %s", realHash, v1Hash)
	}
	if v1Counters != realCounters {
		t.Errorf("counters differ:\n real:    %s\n virtual: %s", realCounters, v1Counters)
	}
	if v1Modeled <= 0 {
		t.Errorf("virtual run reported no modeled time")
	}
	_, _, v2Modeled := runMRInvariant(t, vtime.NewVirtual(3))
	if v1Modeled != v2Modeled {
		t.Errorf("modeled time differs across virtual runs: %v vs %v", v1Modeled, v2Modeled)
	}
}

// TestHAMRInvariantRealVsVirtual: flowlet-engine counterpart, including
// the striped-contention overlap model.
func TestHAMRInvariantRealVsVirtual(t *testing.T) {
	realHash, realCounters, _ := runHAMRInvariant(t, nil)
	v1Hash, v1Counters, v1Modeled := runHAMRInvariant(t, vtime.NewVirtual(3))
	if v1Hash != realHash {
		t.Errorf("output hash differs: real %s virtual %s", realHash, v1Hash)
	}
	if v1Counters != realCounters {
		t.Errorf("counters differ:\n real:    %s\n virtual: %s", realCounters, v1Counters)
	}
	if v1Modeled <= 0 {
		t.Errorf("virtual run reported no modeled time")
	}
	_, _, v2Modeled := runHAMRInvariant(t, vtime.NewVirtual(3))
	if v1Modeled != v2Modeled {
		t.Errorf("modeled time differs across virtual runs: %v vs %v", v1Modeled, v2Modeled)
	}
}

// TestHAMRModeledTimeIgnoresTheScheduler: flowlets fire when data arrives,
// so under the virtual clock HAMR's modeled time and its fabric message
// count depend on the data and the cost model alone. Table 2 at TinyScale
// runs at GOMAXPROCS 1, 2 and 8, and every row's HAMR nanoseconds and the
// HAMR cluster's net.msgs must be identical across the three runs.
func TestHAMRModeledTimeIgnoresTheScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	spec := DefaultSpec()
	spec.VClock = true
	type result struct {
		modeled time.Duration
		msgs    int64
	}
	var first []result
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		h := NewHarness(spec, TinyScale())
		for i, w := range apps.Table {
			row, err := h.RunRow(w, apps.Variant{})
			if err != nil {
				t.Fatal(err)
			}
			got := result{row.HAMR, h.LastHAMRCluster.Get("net.msgs")}
			if procs == 1 {
				first = append(first, got)
			} else if got != first[i] {
				t.Errorf("%s at GOMAXPROCS %d: HAMR %d ns, net.msgs %d; at GOMAXPROCS 1: %d ns, net.msgs %d",
					w.Name, procs, got.modeled, got.msgs, first[i].modeled, first[i].msgs)
			}
		}
	}
}
