package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
	"github.com/hamr-go/hamr/internal/vtime"
)

// The invariance harness: a change to the substrate must not silently
// change what the engines do. Every scenario runs once as `base`, and its
// fingerprint — a line of modeled-cost counters plus a hash of the output —
// must equal the scenario's entry in testdata/invariance.golden. Each
// default-off substrate feature then reruns the scenario as a variant held
// to that base in the same process:
//
//	vclock      virtual clock pays the delays: fingerprint identical
//	trace       span recorder attached: fingerprint identical, spans
//	            recorded, Chrome JSON valid, critical path computable
//
// After every run each local disk must hold nothing but HDFS blocks and
// the scenario's own input files: a spill run or map output left behind
// is a failure. After an intended change to what the engines do:
//
//	go test ./internal/bench -run Invariance -update
//
// Which counters are exact is decided here and nowhere else: a scenario
// lists only counters that do not depend on goroutine scheduling and pins
// the schedule where one needs it. No masking, tolerance or retry.
//
//   - mr.shuffle.bytes is the remote share of the shuffle, so it and the
//     net.bytes/net.msgs that contain it follow reduce placement. YARN
//     grants the emptiest node, ties to the lowest id: exact only with a
//     single reduce task (after the map barrier every node is empty, so it
//     lands on node 0) and YarnMemMB large enough that every map gets its
//     preferred node. Every MR scenario pins both.
//   - On the flowlet engine the order in which shuffled bins reach a
//     reduce accumulator decides which pairs are in memory when the budget
//     trips, so reduce.spill.* and the disk bytes under them are exact only
//     when each accumulator has one producer and one consumer: one input
//     file on node 0 and one worker per node. net.bytes, net.msgs and the
//     output are exact without that pin: the runtime sends every bin, ack
//     and completion marker straight to the fabric, so hamr-wordcount
//     runs unpinned.

var update = flag.Bool("update", false, "rewrite testdata/invariance.golden, testdata/table2_tiny.golden and testdata/graphs.golden from this run")

const goldenPath = "testdata/invariance.golden"

var mrCounters = []string{
	"mr.jobs", "mr.spills", "mr.spill.bytes", "mr.merge.passes",
	"mr.shuffle.bytes", "mr.reduce.disk.merges", "mr.map.local", "mr.map.remote",
	"disk.read.ops", "disk.write.ops", "disk.read.bytes", "disk.write.bytes",
	"net.bytes", "net.msgs",
}

// runFunc stages a scenario's input on c, runs its job(s) and returns the
// output hash plus the input files it put on each node's local disk.
type runFunc func(t *testing.T, c *cluster.Cluster) (hash string, local map[int][]string)

// scenario is one row of the table: a workload on a cluster shape, the
// counters that are exact for it and the variants rerun against its base.
type scenario struct {
	name      string
	nodes     int
	blockSize int64
	core      core.Config
	counters  []string
	variants  string
	run       runFunc
}

var (
	invText   = datagen.Text(datagen.TextConfig{Seed: 11, Vocabulary: 400, Lines: 400})
	invGraph  = datagen.WebGraph(datagen.WebGraphConfig{Seed: 7, Pages: 400})
	invMovies = datagen.Movies(datagen.MoviesConfig{Seed: 9, Movies: 900, Users: 40, Clusters: 3})
)

var scenarios = []scenario{
	// A 1 KiB sort buffer forces many spills per map task and MergeFactor
	// 2 forces multi-pass merging.
	{name: "mr-wordcount", nodes: 3, blockSize: 8 << 10, counters: mrCounters,
		variants: "vclock trace", run: mrWordCount(false)},
	{name: "mr-wordcount+comb", nodes: 3, blockSize: 8 << 10, counters: mrCounters,
		variants: "vclock", run: mrWordCount(true)},
	// A 32 KiB reduce heap pushes the fetched sections past heap/2, so the
	// reduce task spills them and merges from disk. Every input block is on
	// node 1: the maps run there, their slack reads past the split end stay
	// local, and net.bytes is exactly the shuffle to the reduce on node 0.
	{name: "mr-terasort", nodes: 3, blockSize: 16 << 10, counters: mrCounters,
		variants: "vclock trace",
		run: mrRun(teraLines(2500), 1, mapreduce.Config{SortBufferBytes: 4 << 10, MergeFactor: 3, ReduceHeapBytes: 32 << 10},
			func(e *mapreduce.Engine, _ *cluster.Cluster) error {
				_, err := e.Run(teraSortJob("in/", "out", 1))
				return err
			})},
	// Two PageRank iterations are four chained jobs, every boundary
	// materialized in HDFS and reread by the next job's maps.
	{name: "mr-pagerank", nodes: 3, blockSize: 8 << 10, counters: mrCounters,
		variants: "vclock",
		run: mrRun(invGraph, -1, mapreduce.Config{SortBufferBytes: 2 << 10, MergeFactor: 3},
			func(e *mapreduce.Engine, c *cluster.Cluster) error {
				_, err := mrapps.RunPageRankMR(e, c.FS(), "in/data", "out", 2, 1)
				return err
			})},
	// K-Means rereads its whole input from HDFS every iteration. Three
	// iterations over the same initial centroids keep that reread while
	// every pass stays the same job, whatever the centroids converge to.
	{name: "mr-kmeans", nodes: 3, blockSize: 8 << 10, counters: mrCounters,
		variants: "vclock",
		run: mrRun(invMovies, -1, mapreduce.Config{SortBufferBytes: 16 << 10, MergeFactor: 4},
			func(e *mapreduce.Engine, _ *cluster.Cluster) error {
				centroids := datagen.InitialCentroids(invMovies, 3)
				for it := 0; it < 3; it++ {
					if _, err := e.Run(mrapps.KMeansJob("in/data", fmt.Sprintf("out/iter%02d", it), centroids, 1)); err != nil {
						return err
					}
				}
				return nil
			})},
	// A 4 KiB MemoryBudget makes every reduce accumulator spill sorted
	// runs and merge them back.
	{name: "hamr-wordcount-spill", nodes: 2,
		core: core.Config{Workers: 1, MemoryBudget: 4 << 10, BinSize: 64},
		counters: []string{"reduce.spills", "reduce.spill.bytes",
			"disk.read.bytes", "disk.write.bytes", "net.bytes", "net.msgs"},
		variants: "vclock trace", run: hamrWordCount(1)},
	// Unpinned: input files on every node, several workers per node
	// firing concurrently, no memory budget.
	{name: "hamr-wordcount", nodes: 3,
		core:     core.Config{Workers: 4, BinSize: 64},
		counters: []string{"net.bytes", "net.msgs"},
		variants: "vclock trace", run: hamrWordCount(6)},
}

// hamrWordCount runs the flowlet WordCount over invText cut into parts
// local files, spread round-robin over the nodes.
func hamrWordCount(parts int) runFunc {
	return func(t *testing.T, c *cluster.Cluster) (string, map[int][]string) {
		files, err := hamrapps.DistributeLocalText(c, "wc", invText, parts)
		if err != nil {
			t.Fatal(err)
		}
		g, sink := buildSpillWordCount(t, files)
		if _, err := c.Run(g); err != nil {
			t.Fatal(err)
		}
		return hashPairs(sink), files
	}
}

// mrRun is the shape every baseline-engine scenario shares: input into
// HDFS at in/data (every block on node at, -1 = round-robin), jobs on an
// engine built from cfg, everything under out/ hashed.
func mrRun(input []byte, at transport.NodeID, cfg mapreduce.Config,
	jobs func(*mapreduce.Engine, *cluster.Cluster) error) runFunc {
	return func(t *testing.T, c *cluster.Cluster) (string, map[int][]string) {
		if err := c.FS().WriteFile("in/data", input, at); err != nil {
			t.Fatal(err)
		}
		if err := jobs(mapreduce.NewEngine(c, cfg), c); err != nil {
			t.Fatal(err)
		}
		return hashHDFS(t, c, "out/"), nil
	}
}

func mrWordCount(combiner bool) runFunc {
	return mrRun(invText, -1, mapreduce.Config{SortBufferBytes: 1 << 10, MergeFactor: 2},
		func(e *mapreduce.Engine, _ *cluster.Cluster) error {
			_, err := e.Run(mrapps.WordCountJob("in/", "out", combiner, 1))
			return err
		})
}

// runResult is what one run of a scenario leaves behind to compare.
type runResult struct {
	print string // counter line + " output=" + hash: the fingerprint
	tr    *trace.Tracer
}

// runScenario runs s on a fresh cluster — zero-delay cost-counting disks,
// oversized YARN memory — with the one feature named by variant switched
// on ("base" switches nothing), and checks the disks afterwards.
func runScenario(t *testing.T, s scenario, variant string) runResult {
	t.Helper()
	opts := cluster.Options{
		NumNodes:      s.nodes,
		Core:          s.core,
		DiskModel:     &storage.CostModel{},
		HDFSBlockSize: s.blockSize,
		YarnMemMB:     1 << 20,
	}
	switch variant {
	case "vclock":
		opts.Clock = vtime.NewVirtual(s.nodes)
	case "trace":
		opts.Trace = trace.New(s.nodes, vtime.Real())
	}
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hash, local := s.run(t, c)
	for node, d := range c.Disks() {
		files := slices.DeleteFunc(d.List(""), func(f string) bool { return strings.HasPrefix(f, "hdfs/") })
		if !slices.Equal(files, local[node]) {
			t.Errorf("%s/%s: node %d disk holds %d files after the run, want only its %d input files; first: %q",
				s.name, variant, node, len(files), len(local[node]), files[:min(len(files), 3)])
		}
	}
	print := counterLine(c.Metrics(), s.counters) + " output=" + hash
	return runResult{print: print, tr: opts.Trace}
}

// mismatch reports how fingerprint got differs from want, naming the
// scenario, the variant and every field that differs; "" when equal.
func mismatch(row, variant, against, want, got string) string {
	if want == got {
		return ""
	}
	w := strings.Fields(want)
	var diffs []string
	for i, f := range strings.Fields(got) {
		if i >= len(w) {
			diffs = append(diffs, f+", want nothing")
		} else if f != w[i] {
			diffs = append(diffs, f+", want "+w[i])
		}
	}
	return fmt.Sprintf("%s/%s differs from %s:\n  %s\n got: %s\nwant: %s",
		row, variant, against, strings.Join(diffs, "\n  "), got, want)
}

// readGolden parses the golden file into scenario name -> fingerprint.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, print, ok := strings.Cut(line, ": ")
		if _, dup := golden[name]; !ok || dup {
			t.Fatalf("%s: malformed or duplicate line %q", goldenPath, line)
		}
		golden[name] = print
	}
	return golden
}

func TestInvariance(t *testing.T) {
	golden := readGolden(t)
	// With every scenario's base held to its own entry below, equal counts
	// mean one entry per scenario: none can be added without its golden
	// line, and no line can outlive its scenario.
	if !*update && len(golden) != len(scenarios) {
		t.Errorf("%s has %d entries for %d scenarios (run with -update)", goldenPath, len(golden), len(scenarios))
	}
	for _, s := range scenarios {
		t.Run(s.name, func(t *testing.T) {
			base := runScenario(t, s, "base")
			t.Run("base", func(t *testing.T) {
				if *update {
					golden[s.name] = base.print
				} else if m := mismatch(s.name, "base", goldenPath, golden[s.name], base.print); m != "" {
					t.Error(m)
				}
			})
			for _, v := range strings.Fields(s.variants) {
				t.Run(v, func(t *testing.T) { checkVariant(t, s, base, v) })
			}
		})
	}
	if !*update {
		return
	}
	var buf bytes.Buffer
	buf.WriteString("# Base fingerprints of TestInvariance's scenarios. Rewrite with:\n" +
		"#   go test ./internal/bench -run Invariance -update\n")
	for _, s := range scenarios {
		if print, ok := golden[s.name]; ok {
			fmt.Fprintf(&buf, "%s: %s\n", s.name, print)
		}
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkVariant reruns s with one feature on and holds it to base.
func checkVariant(t *testing.T, s scenario, base runResult, variant string) {
	on := runScenario(t, s, variant)
	if m := mismatch(s.name, variant, "base", base.print, on.print); m != "" {
		t.Error(m)
	}
	if variant != "trace" {
		return
	}
	evs := on.tr.Events()
	hasSpan, hasWidth := false, false
	for _, ev := range evs {
		hasSpan = hasSpan || !ev.Instant
		hasWidth = hasWidth || (!ev.Instant && ev.Dur > 0)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, evs); err != nil || !json.Valid(buf.Bytes()) {
		t.Errorf("%s/trace: Chrome JSON invalid (write error %v)", s.name, err)
	}
	// With zero-delay cost models every span can be zero-width and the
	// critical path legitimately empty; require it once a span has width.
	if !hasSpan || (hasWidth && len(trace.CriticalPath(evs)) == 0) {
		t.Errorf("%s/trace: spans recorded: %t; critical path empty though a span has width: %t",
			s.name, hasSpan, hasWidth)
	}
}

// TestInvarianceComparisonNamesTheCounter tests the tester: a fingerprint
// off by one in one counter and one nibble of the hash must be reported
// with the scenario, the variant and both fields — and only those — named.
func TestInvarianceComparisonNamesTheCounter(t *testing.T) {
	want := "mr.spills=3 mr.merge.passes=154 disk.write.bytes=9000 output=00ff00ff00ff00ff"
	got := "mr.spills=3 mr.merge.passes=155 disk.write.bytes=9000 output=00ff00ff00ff00fe"
	if m := mismatch("mr-wordcount", "vclock", "base", want, want); m != "" {
		t.Errorf("equal fingerprints reported as a mismatch: %s", m)
	}
	report, _, _ := strings.Cut(mismatch("mr-wordcount", "vclock", "base", want, got), "\n got:")
	for _, part := range []string{"mr-wordcount/vclock", "mr.merge.passes=155, want mr.merge.passes=154", "output=00ff00ff00ff00fe, want"} {
		if !strings.Contains(report, part) {
			t.Errorf("mismatch report lacks %q:\n%s", part, report)
		}
	}
	for _, part := range []string{"mr.spills", "disk.write.bytes"} {
		if strings.Contains(report, part) {
			t.Errorf("mismatch report names the unchanged %s:\n%s", part, report)
		}
	}
}
