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
// and the first run must equal testdata/table2_tiny.golden. So must the
// baseline's jobs, spills, spilled bytes, merge passes, combines and disk
// bytes: what its user code emits, not where YARN places it (its shuffle
// and net bytes and its time move with container placement, and are left
// out). After an intended change to what either engine does or costs:
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
			m, mr := row.HAMR.Metrics, row.MR.Metrics
			got := []string{
				fmt.Sprintf("ns=%d net.msgs=%d net.bytes=%d disk.read.bytes=%d disk.write.bytes=%d",
					row.HAMR.Time, m.Get("net.msgs"), m.Get("net.bytes"), m.Get("disk.read.bytes"), m.Get("disk.write.bytes")),
				fmt.Sprintf("mr.jobs=%d mr.spills=%d mr.spill.bytes=%d mr.merge.passes=%d mr.combines=%d disk.read.bytes=%d disk.write.bytes=%d",
					mr.Get("mr.jobs"), mr.Get("mr.spills"), mr.Get("mr.spill.bytes"), mr.Get("mr.merge.passes"),
					mr.Get("mr.combines"), mr.Get("disk.read.bytes"), mr.Get("disk.write.bytes")),
			}
			for j, side := range []string{"", mrSuffix} {
				if procs == 1 {
					first = append(first, got[j])
				} else if m := mismatch(string(w.Name)+side, fmt.Sprintf("GOMAXPROCS %d", procs), "GOMAXPROCS 1", first[2*i+j], got[j]); m != "" {
					t.Error(m)
				}
			}
		}
	}
	checkTable2Golden(t, first)
}

// mrSuffix names a row's baseline line in table2GoldenPath.
const mrSuffix = " MR"

const table2GoldenPath = "testdata/table2_tiny.golden"

// checkTable2Golden holds each Table 2 row's HAMR and baseline fingerprints
// (prints[2i] and prints[2i+1]) to their lines in table2GoldenPath, the
// HAMR half first, or rewrites the file under -update.
func checkTable2Golden(t *testing.T, prints []string) {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("# HAMR modeled ns and traffic per Table 2 row at TinyScale under the\n" +
		"# virtual clock, then (\"<row> MR\") the MapReduce baseline's jobs, spills,\n" +
		"# merge passes, combines and disk bytes (TestHAMRModeledTimeIgnoresTheScheduler).\n" +
		"# Rewrite with:\n" +
		"#   go test ./internal/bench -run TestHAMRModeledTimeIgnoresTheScheduler -update\n")
	for j, side := range []string{"", mrSuffix} {
		for i, w := range apps.Table {
			fmt.Fprintf(&buf, "%s%s: %s\n", w.Name, side, prints[2*i+j])
		}
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
	if len(want) != len(prints) {
		t.Errorf("%s has %d lines for %d Table 2 rows on two engines (run with -update)", table2GoldenPath, len(want), len(apps.Table))
	}
	for i, p := range prints {
		row := string(apps.Table[i/2].Name) + []string{"", mrSuffix}[i%2]
		if m := mismatch(row, "GOMAXPROCS 1", table2GoldenPath, want[row], p); m != "" {
			t.Error(m)
		}
	}
}

// TestClockLedgerCloses: the virtual clock records each modeled second
// once, so its per-resource busy times and its lane times are two sums of
// the same charges. Every Table 2 row at TinyScale, on both engines, must
// leave a clock whose busy times over every resource add up to the driver
// lane plus every node lane, to the nanosecond — a model that advances a
// lane without charging a resource, or charges a resource beyond what it
// advanced, breaks the equality.
func TestClockLedgerCloses(t *testing.T) {
	spec, sc := DefaultSpec(), TinyScale()
	for _, w := range apps.Table {
		data := w.Data.Gen(sc)
		r := w.NewRun(sc, data, apps.Variant{})
		for _, side := range []struct {
			name string
			run  func(c *cluster.Cluster) error
		}{
			{apps.SideMR, func(c *cluster.Cluster) error {
				env, err := w.MREnv(c, spec.MapReduce, data, r)
				if err == nil {
					_, err = w.MR(env)
				}
				return err
			}},
			{apps.SideHAMR, func(c *cluster.Cluster) error {
				env, err := w.HAMREnv(c, data, r)
				if err == nil {
					_, _, err = w.RunHAMR(env)
				}
				return err
			}},
		} {
			vc := vtime.NewVirtual(spec.Nodes)
			c, err := cluster.New(spec.ClusterOptions(vc, nil))
			if err != nil {
				t.Fatal(err)
			}
			err = side.run(c)
			c.Close()
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name, side.name, err)
			}
			var busy time.Duration
			for _, res := range vtime.Resources() {
				busy += vc.Busy(res)
			}
			lanes := vc.NodeTime(vtime.Driver)
			for n := 0; n < spec.Nodes; n++ {
				lanes += vc.NodeTime(n)
			}
			if busy != lanes || lanes == 0 {
				t.Errorf("%s on %s: busy times sum to %v, lanes to %v", w.Name, side.name, busy, lanes)
			}
		}
	}
}

// TestContentionAloneInverts: in this model the hot rows' HAMR time is the
// partial-reduce contention charge and nothing of flow control. At
// TinyScale under the virtual clock, HistogramRatings' and WordCount's HAMR
// modeled time is the same at every FlowControlWindow (off, 4, the spec's
// 32), and lower with ContentionCost at 0. Flow control stalls loaders on
// the host but charges no lane; a clock where it costs time is ROADMAP
// item 4.
func TestContentionAloneInverts(t *testing.T) {
	for _, name := range []string{"HistogramRatings", "WordCount"} {
		w := apps.Lookup(name)
		hamr := func(window int, contention time.Duration) time.Duration {
			spec := DefaultSpec()
			spec.VClock = true
			spec.Core.FlowControlWindow = window
			spec.Core.ContentionCost = contention
			h := NewHarness(spec, TinyScale())
			data, r := h.input(w, apps.Variant{})
			s, _, err := h.sideHAMR(w, data, r)
			if err != nil {
				t.Fatal(err)
			}
			return s.Time
		}
		cost := DefaultSpec().Core.ContentionCost
		want := hamr(32, cost)
		for _, window := range []int{0, 4} {
			if got := hamr(window, cost); got != want {
				t.Errorf("%s HAMR at FlowControlWindow %d: %v, at 32: %v", name, window, got, want)
			}
		}
		if free := hamr(32, 0); free >= want {
			t.Errorf("%s HAMR with ContentionCost 0: %v, not below %v at %v", name, free, want, cost)
		}
	}
}
