package bench

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
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
// so under the virtual clock HAMR's modeled time and its traffic depend on
// the data and the cost model alone. Table 2 at TinyScale runs at
// GOMAXPROCS 1, 2 and 8; every row's HAMR nanoseconds, net.msgs, net.bytes
// and disk read and write bytes must be identical across the three runs,
// and the first run must equal testdata/table2_tiny.golden. After an
// intended change to what HAMR does or costs:
//
//	go test ./internal/bench -run TestHAMRModeledTimeIgnoresTheScheduler -update
func TestHAMRModeledTimeIgnoresTheScheduler(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	spec := DefaultSpec()
	spec.VClock = true
	var first []string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		h := NewHarness(spec, TinyScale())
		for i, w := range apps.Table {
			row, err := h.RunRow(w, apps.Variant{})
			if err != nil {
				t.Fatal(err)
			}
			m := h.LastHAMRCluster
			got := fmt.Sprintf("ns=%d net.msgs=%d net.bytes=%d disk.read.bytes=%d disk.write.bytes=%d",
				row.HAMR, m.Get("net.msgs"), m.Get("net.bytes"), m.Get("disk.read.bytes"), m.Get("disk.write.bytes"))
			if procs == 1 {
				first = append(first, got)
			} else if m := mismatch(string(w.Name), fmt.Sprintf("GOMAXPROCS %d", procs), "GOMAXPROCS 1", first[i], got); m != "" {
				t.Error(m)
			}
		}
	}
	checkTable2Golden(t, first)
}

const table2GoldenPath = "testdata/table2_tiny.golden"

// checkTable2Golden holds each Table 2 row's HAMR fingerprint to its line
// in table2GoldenPath, or rewrites the file under -update.
func checkTable2Golden(t *testing.T, prints []string) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("# HAMR modeled ns and traffic per Table 2 row at TinyScale under the\n" +
		"# virtual clock (TestHAMRModeledTimeIgnoresTheScheduler). Rewrite with:\n" +
		"#   go test ./internal/bench -run TestHAMRModeledTimeIgnoresTheScheduler -update\n")
	for i, w := range apps.Table {
		fmt.Fprintf(&buf, "%s: %s\n", w.Name, prints[i])
	}
	if *update {
		if err := os.WriteFile(table2GoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(table2GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, print, ok := strings.Cut(line, ": "); ok && !strings.HasPrefix(line, "#") {
			want[name] = print
		}
	}
	if len(want) != len(apps.Table) {
		t.Errorf("%s has %d rows for %d Table 2 rows (run with -update)", table2GoldenPath, len(want), len(apps.Table))
	}
	for i, w := range apps.Table {
		if m := mismatch(string(w.Name), "GOMAXPROCS 1", table2GoldenPath, want[string(w.Name)], prints[i]); m != "" {
			t.Error(m)
		}
	}
}
