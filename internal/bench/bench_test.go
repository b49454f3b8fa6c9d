package bench

import (
	"strings"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/apps"
)

// fastSpec strips the cost models so harness tests run in milliseconds;
// shape calibration is exercised by cmd/hamrbench, not here.
func fastSpec() ClusterSpec {
	s := DefaultSpec()
	s.Disk = DefaultSpec().Disk
	s.Disk.TimeScale = 0.01
	s.Net.TimeScale = 0.01
	s.MapReduce.JobStartup = time.Millisecond
	s.MapReduce.TaskStartup = 0
	s.ContentionCost = 0
	return s
}

// row is the table's entry for a benchmark this package names.
func row(b Benchmark) *apps.Workload { return apps.Lookup(string(b)) }

func TestHarnessRunsEveryBenchmarkOnBothEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness pass")
	}
	h := NewHarness(fastSpec(), TinyScale())
	for _, w := range apps.Table {
		t.Run(string(w.Name), func(t *testing.T) {
			checked := h.Checked
			row, err := h.RunRow(w, apps.Variant{})
			if err != nil || row.IDH <= 0 || row.HAMR <= 0 {
				t.Fatalf("%v (%+v)", err, row)
			}
			// Both answers were held to the reference, not just timed.
			if h.Checked < checked+2 {
				t.Errorf("%d keys checked, want at least one from each engine", h.Checked-checked)
			}
		})
	}
}

// TestHarnessFailsOnAWrongAnswer: a row whose engines disagree with the
// reference is an error naming the row and the side, not a time.
func TestHarnessFailsOnAWrongAnswer(t *testing.T) {
	h := NewHarness(fastSpec(), TinyScale())
	wrong := *row(WordCount)
	wrong.Reference = func(input []byte, r apps.Run) apps.Output {
		out := row(WordCount).Reference(input, r)
		for k := range out {
			delete(out, k) // one word the reference never saw
			break
		}
		return out
	}
	_, err := h.RunRow(&wrong, apps.Variant{})
	if err == nil || !strings.Contains(err.Error(), "WordCount") || !strings.Contains(err.Error(), apps.SideMR) {
		t.Errorf("RunRow: %v, want a mismatch naming the row and the first side checked", err)
	}
	if h.Checked != 0 {
		t.Errorf("Checked = %d after a failed check", h.Checked)
	}
}

// TestHarnessHotPathClean runs one HAMR benchmark and checks the
// engine's hot-path health counters: a clean run must shuffle data
// (bins.sent > 0) and must not silently drop any payloads — a
// regression in the sharded emit buffers or the codec would surface
// here as bins.dropped > 0 or missing shuffle traffic.
func TestHarnessHotPathClean(t *testing.T) {
	h := NewHarness(fastSpec(), TinyScale())
	if _, err := h.RunRow(row(WordCount), apps.Variant{}); err != nil {
		t.Fatalf("wordcount: %v", err)
	}
	res := h.LastHAMR
	if res == nil {
		t.Fatal("LastHAMR not recorded")
	}
	if got := res.Metrics.Get("bins.sent"); got == 0 {
		t.Error("bins.sent = 0, expected shuffle traffic")
	}
	if got := res.Metrics.Get("shuffle.kvs"); got == 0 {
		t.Error("shuffle.kvs = 0, expected remote shuffle traffic")
	}
	// bins.dropped and net.dropped are substrate counters (runtime
	// teardown, fabric delivery), accounted cluster-wide rather than in
	// the job's own deltas.
	if got := h.LastHAMRCluster.Get("bins.dropped"); got != 0 {
		t.Errorf("bins.dropped = %d on a clean run", got)
	}
	// The fabric only skips deliveries (best-effort broadcast to a closed
	// inbox) during teardown races; a clean run must deliver everything.
	if got := h.LastHAMRCluster.Get("net.dropped"); got != 0 {
		t.Errorf("net.dropped = %d on a clean run", got)
	}

	// LastHAMR is this row's last job, whatever the row: PageRank is a
	// chain run by a driver, not a graph the harness runs itself.
	wordcount := res.Job
	if _, err := h.RunRow(row(PageRank), apps.Variant{}); err != nil {
		t.Fatalf("pagerank: %v", err)
	}
	if h.LastHAMR == nil || h.LastHAMR.Job == wordcount {
		t.Errorf("after PageRank LastHAMR is still WordCount's job %d", wordcount)
	}
}

// TestHarnessCombinerVariant: every variant a row declares runs and is
// checked, and Table 3 is the variants the paper printed a number for.
func TestHarnessCombinerVariant(t *testing.T) {
	h := NewHarness(fastSpec(), TinyScale())
	for _, w := range apps.Table {
		for _, v := range w.Variants {
			if v.Paper != nil {
				continue // Table3, below, runs these
			}
			if _, err := h.RunRow(w, v); err != nil {
				t.Errorf("%s, %s: %v", w.Name, v.Name, err)
			}
		}
	}
	rows, err := h.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Benchmark != apps.HistogramMovies || rows[1].Benchmark != HistogramRatings ||
		rows[0].Paper.Speedup != 1.79 || rows[1].Paper.Speedup != 0.31 {
		t.Errorf("Table 3 = %+v, want the two histograms beside the paper's combiner numbers", rows)
	}
}

func TestPaperTablesComplete(t *testing.T) {
	for _, w := range apps.Table {
		b := w.Name
		row, ok := PaperTable2[b]
		if !ok {
			t.Errorf("PaperTable2 missing %s", b)
			continue
		}
		want := row.IDH / row.HAMR
		if diff := want - row.Speedup; diff > 0.01 || diff < -0.01 {
			t.Errorf("%s: published speedup %.2f inconsistent with times (%.2f)", b, row.Speedup, want)
		}
	}
	if len(PaperTable2) != len(apps.Table) {
		t.Errorf("PaperTable2 has %d rows, the table %d", len(PaperTable2), len(apps.Table))
	}
}

func TestShapeCheckAgainstPaperNumbers(t *testing.T) {
	// Feeding the paper's own numbers through the shape check must pass
	// every assertion.
	var rows []Row
	for _, w := range apps.Table {
		b, p := w.Name, w.Paper
		rows = append(rows, Row{
			Benchmark: b,
			DataSize:  p.DataSize,
			IDH:       time.Duration(p.IDH * float64(time.Second)),
			HAMR:      time.Duration(p.HAMR * float64(time.Second)),
			Speedup:   p.Speedup,
			Paper:     p,
		})
	}
	for _, v := range ShapeCheck(rows) {
		if strings.HasPrefix(v, "[FAIL]") {
			t.Errorf("paper numbers fail their own shape check: %s", v)
		}
	}
}

func TestShapeCheckCatchesInversionLoss(t *testing.T) {
	rows := []Row{{
		Benchmark: HistogramRatings,
		Speedup:   1.5, // wrong direction
		Paper:     PaperTable2[HistogramRatings],
	}}
	failed := false
	for _, v := range ShapeCheck(rows) {
		if strings.HasPrefix(v, "[FAIL]") {
			failed = true
		}
	}
	if !failed {
		t.Error("shape check accepted a lost inversion")
	}
}

func TestReportsRender(t *testing.T) {
	var rows []Row
	for _, w := range apps.Table {
		b, p := w.Name, w.Paper
		rows = append(rows, Row{
			Benchmark: b, DataSize: p.DataSize,
			IDH:  2 * time.Second,
			HAMR: time.Second, Speedup: 2, Paper: p,
			Modeled: true, IDHImbalance: 1.25, HAMRImbalance: 2.5,
		})
	}
	var sb strings.Builder
	WriteTable1(&sb, DefaultSpec())
	WriteTable2(&sb, rows)
	WriteTable3(&sb, rows[:2])
	WriteFigure3(&sb, rows, "3a")
	WriteFigure3(&sb, rows, "3b")
	WriteTimeReport(&sb, rows)
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Figure 3(a)", "Figure 3(b)",
		"K-Means", "HistogramRatings", "Baseline",
		"Time report", "max/mean", "1.25x", "2.50x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFigure3Selection(t *testing.T) {
	var rows []Row
	for _, w := range apps.Table {
		rows = append(rows, Row{Benchmark: w.Name})
	}
	a := Figure3(rows, "3a")
	if len(a) != 4 || a[0].Benchmark != KMeans {
		t.Errorf("Figure3(3a) = %v", a)
	}
	b := Figure3(rows, "3b")
	if len(b) != 4 || b[0].Benchmark != WordCount {
		t.Errorf("Figure3(3b) = %v", b)
	}
}

func TestScalesProportioned(t *testing.T) {
	s := SmallScale()
	// K-Means ("300GB") must be the biggest movies dataset; histograms
	// ("30GB") bigger than nothing else uses movies.
	if s.KMeansMovies <= s.HistogramMovies {
		t.Errorf("K-Means dataset (%d) should exceed histogram dataset (%d), as 300GB > 30GB",
			s.KMeansMovies, s.HistogramMovies)
	}
	tiny := TinyScale()
	if tiny.KMeansMovies >= s.KMeansMovies {
		t.Error("tiny scale not smaller than small scale")
	}
}

// TestHAMRLaneImbalance is the funnel guard over the workload table: every
// row's HAMR side, once, under a virtual clock with the benchmark's cost
// models, held to a ceiling on its lane imbalance (Row.HAMRImbalance). A
// graph that shuffles a constant key sends its pairs to one node and folds
// them on one stripe while the rest of the cluster idles; the modeled
// seconds only say the row got slower, this says one node set them. A row
// above the default ceiling carries the mechanism that puts it there, and
// at TinyScale that is always the paper's §5.2: few keys, or a few hot ones.
//
// PageRank is the row this was written for, held at both scales: with its
// convergence check's two edges (merge -> cont -> maxdelta) on the default
// shuffle it read 1.35x here and 2.70x at SmallScale — every page's delta
// folded on one node; folded where it is produced it reads 1.02x and 1.01x.
// Putting either edge back on the shuffle gives 1.35-1.39x / 2.69-2.70x
// again and fails this test.
func TestHAMRLaneImbalance(t *testing.T) {
	const ceiling = 1.25 // Classification 1.01x, KCliques 1.02-1.03x
	hot := map[Benchmark]struct {
		max float64
		why string
	}{
		PageRank:             {1.1, "no hot key: the one constant key is folded on the node that produced it"},
		KMeans:               {1.45, "1.30x: four cluster keys, so at most four of eight nodes re-read members and sum (§5.2); 1.07x at SmallScale, where the map's read dominates"},
		apps.HistogramMovies: {1.45, "1.32x: nine half-star buckets over eight nodes (§5.2)"},
		apps.NaiveBayes:      {1.35, "1.22x: Zipfian words under a handful of labels (§5.2)"},
		HistogramRatings:     {1.7, "1.51x: five keys, so at most five of eight nodes fold anything (§5.2, the paper's inversion)"},
		WordCount:            {1.85, "1.66x: Zipfian words, the head of the vocabulary is a few hot keys (§5.2)"},
	}
	spec := DefaultSpec()
	spec.VClock = true
	run := func(h *Harness, w *apps.Workload) {
		t.Helper()
		data, r := h.input(w, apps.Variant{})
		if _, _, err := h.runHAMR(w, data, r); err != nil {
			t.Fatal(err)
		}
		limit, why := ceiling, "default"
		if row, ok := hot[w.Name]; ok {
			limit, why = row.max, row.why
		}
		if got := h.LastImbalance; got < 1 || got > limit {
			t.Errorf("%s: largest node lane is %.2fx the mean, want 1x-%.2fx (%s): one node paces the row while the others idle",
				w.Name, got, limit, why)
		}
	}
	tiny := NewHarness(spec, TinyScale())
	for _, w := range apps.Table {
		run(tiny, w)
	}
	run(NewHarness(spec, SmallScale()), row(PageRank))
}
