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

func newCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		NumNodes:      testNodes,
		HDFSBlockSize: 8 << 10,
		Core:          core.Config{Workers: 2},
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
// and holds both answers to the reference. labels name the subtests, plain
// run first; without them a variant's subtest carries its name.
func diffRow(t *testing.T, name apps.Benchmark, labels ...string) {
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
			r := w.NewRun(diffScale, data, v)
			ref := w.Reference(data, r)

			env, err := w.HAMREnv(newCluster(t), data, r)
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

			if env, err = w.MREnv(newCluster(t), mapreduce.Config{}, data, r); err != nil {
				t.Fatal(err)
			}
			if collect, err = w.MR(env); err != nil {
				t.Fatal(err)
			}
			check(t, w, ref, apps.SideMR, collect)

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
func TestDiffKMeans(t *testing.T)          { diffRow(t, apps.KMeans) }
func TestDiffClassification(t *testing.T)  { diffRow(t, apps.Classification) }
func TestDiffPageRank(t *testing.T)        { diffRow(t, apps.PageRank) }
func TestDiffKCliques(t *testing.T)        { diffRow(t, apps.KCliques, "k=3", "k=4") }
func TestDiffWordCount(t *testing.T)       { diffRow(t, apps.WordCount, "combiner=false", "combiner=true") }
func TestDiffHistogramMovies(t *testing.T) { diffRow(t, apps.HistogramMovies) }
func TestDiffNaiveBayes(t *testing.T)      { diffRow(t, apps.NaiveBayes) }
func TestDiffHistogramRatings(t *testing.T) {
	diffRow(t, apps.HistogramRatings,
		"combiner=false,serialize=false", "combiner=true,serialize=false", "combiner=false,serialize=true")
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
