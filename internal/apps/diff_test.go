// Package apps_test differentially tests the workload table: for every row
// and every variant it declares, the flowlet implementation and the MapReduce
// implementation must both compute the single-threaded reference's answer
// from identical inputs — the engines differ in *how* data moves, never in
// *what* is computed.
package apps_test

import (
	"sort"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/apps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/mapreduce"
)

const testNodes = 4

// diffScale keeps every row's input to a few hundred records.
var diffScale = apps.Scale{
	KMeansMovies: 300, KMeansUsers: 60, KClusters: 4,
	HistogramMovies: 400, HistogramUsers: 80,
	WordCountLines: 400, WordCountVocab: 200,
	NaiveBayesDocs: 300,
	PageRankPages:  200, PageRankIters: 3,
	KCliquesScale: 6, KCliquesEdges: 300, KCliquesK: 3,
	Reduces: 3,
}

// newCluster builds a test cluster whose nodes hold budget bytes of
// reduce input in memory (0: unlimited).
func newCluster(t *testing.T, budget int64) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		NumNodes:      testNodes,
		HDFSBlockSize: 8 << 10,
		Core:          core.Config{Workers: 2, MemoryBudget: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// diffRow runs one row of the table — plain, then under each variant it
// declares — on one cluster per engine (separate substrates, same geometry),
// through the same table entries and the same input layout the harness uses
// (Workload.HAMREnv / MREnv),
// and holds both answers to the reference. The flowlet side runs under a
// MemoryBudget of budget bytes (0: unlimited). labels name the subtests,
// plain run first; without them a variant's subtest carries its name.
func diffRow(t *testing.T, name apps.Benchmark, budget int64, labels ...string) {
	w := apps.Lookup(string(name))
	if w == nil {
		t.Fatalf("the table has no row %q", name)
	}
	variants := append([]apps.Variant{{}}, w.Variants...)
	if len(labels) == 0 {
		labels = []string{"plain"}
		for _, v := range w.Variants {
			labels = append(labels, v.Name)
		}
	}
	if len(labels) != len(variants) {
		t.Fatalf("%d subtest names for %d runs of %s", len(labels), len(variants), name)
	}
	data := w.Data.Gen(diffScale)
	for i, v := range variants {
		run := func(t *testing.T) {
			ref := runBoth(t, w, data, v, budget)
			if w.Name == apps.HistogramRatings && len(ref) > 5 {
				t.Errorf("rating histogram has %d keys, want <= 5", len(ref))
			}
		}
		if len(variants) == 1 {
			run(t)
		} else {
			t.Run(labels[i], run)
		}
	}
}

// runBoth runs row w under variant v over data on both engines, holds both
// answers to the reference's and returns that. A flowlet side run under a
// budget (> 0) must also have spilled reduce input.
func runBoth(t *testing.T, w *apps.Workload, data []byte, v apps.Variant, budget int64) apps.Output {
	t.Helper()
	r := w.NewRun(diffScale, data, v)
	ref := w.Reference(data, r)

	c := newCluster(t, budget)
	env, err := w.HAMREnv(c, data, r)
	if err != nil {
		t.Fatal(err)
	}
	res, collect, err := w.RunHAMR(env)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || res.Job == 0 {
		t.Errorf("no job result from the flowlet side: %+v", res)
	}
	check(t, w, ref, apps.SideHAMR, collect)
	if spills := c.Metrics().Snapshot().Get("reduce.spills"); budget > 0 && spills == 0 {
		t.Errorf("%s: no reduce flowlet spilled under a %d-byte memory budget", w.Name, budget)
	}

	if env, err = w.MREnv(newCluster(t, 0), mapreduce.Config{}, data, r); err != nil {
		t.Fatal(err)
	}
	if collect, err = w.MR(env); err != nil {
		t.Fatal(err)
	}
	check(t, w, ref, apps.SideMR, collect)
	return ref
}

func check(t *testing.T, w *apps.Workload, ref apps.Output, side string, collect apps.Collect) {
	t.Helper()
	out, err := collect()
	if err != nil {
		t.Fatalf("%s: reading the answer: %v", side, err)
	}
	if err := w.Check(ref, side, out); err != nil {
		t.Error(err)
	}
}

// One test per row of Table 2, under the names (subtests included) these
// comparisons have always run under; everything they do is read from the
// table. TestRegistryCoversTable2 holds the table to these eight rows.
func TestDiffKMeans(t *testing.T)         { diffRow(t, apps.KMeans, 0) }
func TestDiffClassification(t *testing.T) { diffRow(t, apps.Classification, 0) }
func TestDiffPageRank(t *testing.T)       { diffRow(t, apps.PageRank, 0) }
func TestDiffKCliques(t *testing.T)       { diffRow(t, apps.KCliques, 0, "k=3", "k=4") }
func TestDiffWordCount(t *testing.T) {
	diffRow(t, apps.WordCount, 0, "combiner=false", "combiner=true")
}
func TestDiffHistogramMovies(t *testing.T) { diffRow(t, apps.HistogramMovies, 0) }
func TestDiffNaiveBayes(t *testing.T)      { diffRow(t, apps.NaiveBayes, 0) }
func TestDiffHistogramRatings(t *testing.T) {
	diffRow(t, apps.HistogramRatings, 0,
		"combiner=false,serialize=false", "combiner=true,serialize=false", "combiner=false,serialize=true")
}

// TestDiffReduceSpills runs the rows whose graphs have a Reduce flowlet
// again with a 1 KiB memory budget on each node, so their reduce input
// spills through the value codec to disk and is merged back: every type a
// row spills must survive the codec, and the answer must not move.
func TestDiffReduceSpills(t *testing.T) {
	for _, row := range []apps.Benchmark{apps.KMeans, apps.PageRank, apps.KCliques} {
		t.Run(string(row), func(t *testing.T) { diffRow(t, row, 1<<10) })
	}
}

// TestEdgeListsAgreeWithTheReference runs the edge-list rows over
// hand-written graphs the generators never produce: an edge line repeated,
// which PageRank counts twice (a page's every line carries a share), and an
// edge listed in both directions, which is one edge of one clique, and
// edges written "u\tv", which are edges, whatever the MapReduce chains' own
// intermediate lines look like. KCliques also runs at k = 2, where the
// answer is the edge set, each edge once.
func TestEdgeListsAgreeWithTheReference(t *testing.T) {
	const twice, tabs = "0 1\n1 0\n0 2\n1 2\n", "0\t1\n1\t2\n2\t0\n"
	for _, tc := range []struct {
		name  string
		row   apps.Benchmark
		k     int
		edges string
	}{
		{"pagerank/repeated-edge", apps.PageRank, 0, "0 1\n0 1\n0 2\n1 2\n2 0\n2 1\n1 0\n3 0\n"},
		{"kcliques/both-directions", apps.KCliques, 3, twice},
		{"kcliques/both-directions/k=2", apps.KCliques, 2, twice},
		{"kcliques/k=2", apps.KCliques, 2, "0 1\n0 2\n1 2\n2 3\n3 4\n5 5\n"},
		{"pagerank/tabs", apps.PageRank, 0, tabs},
		{"kcliques/tabs", apps.KCliques, 3, tabs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := runBoth(t, apps.Lookup(string(tc.row)), []byte(tc.edges), apps.Variant{K: tc.k}, 0)
			if tc.row == apps.KCliques && len(ref) == 0 {
				t.Error("the reference finds no clique: the case checks nothing")
			}
		})
	}
}

// TestCheckNamesTheFirstDifference: the comparison every timed row rests on
// must itself fail when an answer is wrong, and say where.
func TestCheckNamesTheFirstDifference(t *testing.T) {
	wc, km, pr := apps.Lookup("WordCount"), apps.Lookup("K-Means"), apps.Lookup("PageRank")
	data := wc.Data.Gen(diffScale)
	ref := wc.Reference(data, wc.NewRun(diffScale, data, apps.Variant{}))
	var keys []string
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lo, hi := keys[0], keys[1]
	// edit copies an answer without some keys and with others set.
	edit := func(o apps.Output, drop []string, set apps.Output) apps.Output {
		c := apps.Output{}
		for k, v := range o {
			c[k] = v
		}
		for _, k := range drop {
			delete(c, k)
		}
		for k, v := range set {
			c[k] = v
		}
		return c
	}
	centroid := apps.Output{"0": "1:5", "assign|movie000001": "0"}
	ranks := apps.Output{"iterations": "3", "7": "0.5"}
	for _, tc := range []struct {
		what     string
		w        *apps.Workload
		ref, got apps.Output
		side     string
		key      string // the key the mismatch must name; "": the answers agree
	}{
		{"the reference's own answer", wc, ref, edit(ref, nil, nil), apps.SideMR, ""},
		{"lines dropped from one side", wc, ref, edit(ref, []string{hi, lo}, nil), apps.SideMR, lo},
		{"lines dropped from the reference", wc, edit(ref, []string{lo, hi}, nil), ref, apps.SideHAMR, lo},
		{"a wrong count", wc, ref, edit(ref, nil, apps.Output{hi: "-1"}), apps.SideHAMR, hi},
		{"an empty answer", wc, ref, apps.Output{}, apps.SideMR, lo},
		{"an empty reference, which checks nothing", wc, apps.Output{}, apps.Output{}, apps.SideMR, "WordCount"},
		// The assignments are the flowlet K-Means's output alone.
		{"MapReduce K-Means without assignments", km, centroid, apps.Output{"0": "1:5"}, apps.SideMR, ""},
		{"HAMR K-Means without assignments", km, centroid, apps.Output{"0": "1:5"}, apps.SideHAMR, "assign|movie000001"},
		// Ranks agree to 1e-9, no further.
		{"ranks 1e-13 apart", pr, ranks, edit(ranks, nil, apps.Output{"7": "0.5000000000001"}), apps.SideHAMR, ""},
		{"ranks 1e-6 apart", pr, ranks, edit(ranks, nil, apps.Output{"7": "0.500001"}), apps.SideHAMR, "7"},
		{"another iteration count", pr, ranks, edit(ranks, nil, apps.Output{"iterations": "2"}), apps.SideMR, "iterations"},
	} {
		err := tc.w.Check(tc.ref, tc.side, tc.got)
		if tc.key == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.what, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: no mismatch reported", tc.what)
			continue
		}
		for _, want := range []string{string(tc.w.Name), tc.side, tc.key} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %s", tc.what, err, want)
			}
		}
	}
}

// TestRegistryCoversTable2: the table is Table 2, whole and once.
func TestRegistryCoversTable2(t *testing.T) {
	if len(apps.Table) != 8 {
		t.Fatalf("the table has %d rows; Table 2 has eight, each with a TestDiff above", len(apps.Table))
	}
	bands := map[*apps.Band]bool{}
	for _, b := range apps.Bands {
		bands[b] = true
	}
	var table3 []string
	for i, w := range apps.Table {
		for _, other := range apps.Table[:i] {
			for _, a := range []string{string(w.Name), w.App} {
				if strings.EqualFold(a, string(other.Name)) || strings.EqualFold(a, other.App) {
					t.Errorf("%s and %s share the name %q", other.Name, w.Name, a)
				}
			}
		}
		for _, name := range []string{string(w.Name), w.App, strings.ToUpper(w.App)} {
			if apps.Lookup(name) != w {
				t.Errorf("Lookup(%q) is not the %s row", name, w.Name)
			}
		}
		if w.Paper.DataSize == "" || w.Paper.IDH <= 0 || w.Paper.HAMR <= 0 {
			t.Errorf("%s has no Table 2 entry: %+v", w.Name, w.Paper)
		}
		if (w.Panel != "3a" && w.Panel != "3b") || !bands[w.Shape] {
			t.Errorf("%s: panel %q and band %p, want 3a or 3b and one of apps.Bands", w.Name, w.Panel, w.Shape)
		}
		for _, v := range w.Variants {
			if v.Paper != nil && v.Name == "combiner" {
				table3 = append(table3, string(w.Name))
			} else if v.Paper != nil {
				t.Errorf("%s: Table 3 is the combiner ablation, but variant %q carries a paper row", w.Name, v.Name)
			}
		}
	}
	if got := strings.Join(table3, ","); got != "HistogramMovies,HistogramRatings" {
		t.Errorf("Table 3's rows are %s, want the two histograms", got)
	}
	if apps.Lookup("nonsense") != nil || apps.Lookup("") != nil {
		t.Error("Lookup finds rows for names the table does not have")
	}
	// The spellings cmd/hamr has always taken.
	for _, app := range []string{"wordcount", "histogram-movies", "histogram-ratings", "naivebayes",
		"pagerank", "kcliques", "kmeans", "classification"} {
		if apps.Lookup(app) == nil {
			t.Errorf("-app %s is no longer a row", app)
		}
	}
}
