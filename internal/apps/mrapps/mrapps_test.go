package mrapps

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/apps/kernel"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/mapreduce"
)

func newEnv(t testing.TB, nodes int) (*cluster.Cluster, *mapreduce.Engine) {
	t.Helper()
	c, err := cluster.New(cluster.Options{NumNodes: nodes, HDFSBlockSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, mapreduce.NewEngine(c, mapreduce.Config{})
}

func writeInput(t testing.TB, c *cluster.Cluster, path string, data []byte) {
	t.Helper()
	if err := c.FS().WriteFile(path, data, -1); err != nil {
		t.Fatal(err)
	}
}

func readOutput(t testing.TB, c *cluster.Cluster, prefix string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, f := range c.FS().List(prefix) {
		data, err := c.FS().ReadFile(f, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			parts := strings.SplitN(line, "\t", 2)
			if len(parts) == 2 {
				out[parts[0]] = parts[1]
			}
		}
	}
	return out
}

func TestWordCountJobCounts(t *testing.T) {
	c, e := newEnv(t, 3)
	writeInput(t, c, "in/w", []byte("a b a\nc a b\n"))
	if _, err := e.Run(WordCountJob("in/w", "out", true, 2)); err != nil {
		t.Fatal(err)
	}
	got := readOutput(t, c, "out/")
	if got["a"] != "3" || got["b"] != "2" || got["c"] != "1" {
		t.Fatalf("counts = %v", got)
	}
}

func TestHistogramJobsCoverInput(t *testing.T) {
	c, e := newEnv(t, 3)
	data := datagen.Movies(datagen.MoviesConfig{Seed: 51, Movies: 200, Users: 40})
	writeInput(t, c, "in/m", data)

	if _, err := e.Run(HistogramMoviesJob("in/m", "hm", true, 3)); err != nil {
		t.Fatal(err)
	}
	var movieTotal int64
	for bucket, v := range readOutput(t, c, "hm/") {
		b, err := strconv.ParseFloat(bucket, 64)
		if err != nil || b < 1 || b > 5 || b != math.Round(b*2)/2 {
			t.Errorf("bad bucket %q", bucket)
		}
		n, _ := strconv.ParseInt(v, 10, 64)
		movieTotal += n
	}
	if movieTotal != 200 {
		t.Fatalf("histogram covers %d movies", movieTotal)
	}

	if _, err := e.Run(HistogramRatingsJob("in/m", "hr", true, 5)); err != nil {
		t.Fatal(err)
	}
	ratings := readOutput(t, c, "hr/")
	if len(ratings) == 0 || len(ratings) > 5 {
		t.Fatalf("rating buckets = %v", ratings)
	}
	for r := range ratings {
		if n, err := strconv.Atoi(r); err != nil || n < 1 || n > 5 {
			t.Errorf("bad rating key %q", r)
		}
	}
}

func TestNaiveBayesJobsChainConsistency(t *testing.T) {
	c, e := newEnv(t, 3)
	data := datagen.Docs(datagen.DocsConfig{Seed: 53, Labels: 2, Vocabulary: 30, Docs: 100})
	writeInput(t, c, "in/d", data)
	res, err := e.RunChain(NaiveBayesJobs("in/d", "mid", "out", 2)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("%d jobs", len(res.Jobs))
	}
	var labelTotal, featureTotal int64
	for k, v := range readOutput(t, c, "out/") {
		n, _ := strconv.ParseInt(v, 10, 64)
		switch {
		case strings.HasPrefix(k, "labelweight|"):
			labelTotal += n
		case strings.HasPrefix(k, "featureweight|"):
			featureTotal += n
		default:
			t.Errorf("unexpected key %q", k)
		}
	}
	if labelTotal == 0 || labelTotal != featureTotal {
		t.Fatalf("label total %d != feature total %d", labelTotal, featureTotal)
	}
}

func TestKMeansJobPicksMedianMedoid(t *testing.T) {
	c, e := newEnv(t, 2)
	data := datagen.Movies(datagen.MoviesConfig{Seed: 55, Movies: 90, Users: 30, Clusters: 3})
	writeInput(t, c, "in/m", data)
	cents := datagen.InitialCentroids(data, 3)
	if _, err := e.Run(KMeansJob("in/m", "out", cents, 3)); err != nil {
		t.Fatal(err)
	}
	got := readOutput(t, c, "out/")
	if len(got) != 3 {
		t.Fatalf("%d centroids", len(got))
	}
	for k, v := range got {
		if _, err := strconv.Atoi(k); err != nil {
			t.Errorf("bad cluster key %q", k)
		}
		cent, err := kernel.ParseCentroid(v)
		if err != nil || len(cent) == 0 {
			t.Errorf("bad centroid %q: %v", v, err)
		}
	}
}

func TestClassificationJobModes(t *testing.T) {
	c, e := newEnv(t, 2)
	data := datagen.Movies(datagen.MoviesConfig{Seed: 57, Movies: 60, Users: 20, Clusters: 2})
	writeInput(t, c, "in/m", data)
	cents := datagen.InitialCentroids(data, 2)

	if _, err := e.Run(ClassificationJob("in/m", "counts", cents, 2, false)); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, v := range readOutput(t, c, "counts/") {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
	}
	if total != 60 {
		t.Fatalf("count mode covers %d movies", total)
	}

	if _, err := e.Run(ClassificationJob("in/m", "mat", cents, 2, true)); err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, f := range c.FS().List("mat/") {
		d, _ := c.FS().ReadFile(f, -1)
		for _, line := range strings.Split(string(d), "\n") {
			if line == "" {
				continue
			}
			records++
			parts := strings.SplitN(line, "\t", 2)
			if _, ok := datagen.ParseMovie(parts[1]); !ok {
				t.Fatalf("materialized row is not a movie record: %q", line)
			}
		}
	}
	if records != 60 {
		t.Fatalf("materialize mode wrote %d records", records)
	}
}

func TestPageRankMRRanksSumStable(t *testing.T) {
	c, e := newEnv(t, 3)
	data := datagen.WebGraph(datagen.WebGraphConfig{Seed: 59, Pages: 120, OutLinks: 4})
	writeInput(t, c, "in/g", data)
	res, err := RunPageRankMR(e, c.FS(), "in/g", "work", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 2 || len(res.Ranks) == 0 {
		t.Fatalf("iterations=%d ranks=%d", res.Iterations, len(res.Ranks))
	}
	for page, r := range res.Ranks {
		if r <= 0 {
			t.Errorf("page %s rank %v", page, r)
		}
	}
}

func TestKCliquesMROnKnownGraph(t *testing.T) {
	c, e := newEnv(t, 3)
	data := datagen.CliqueTestGraph(4, 6) // C(4,3) = 4 triangles
	writeInput(t, c, "in/g", data)
	res, err := RunKCliquesMR(e, c.FS(), "in/g", "work", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0,1,2", "0,1,3", "0,2,3", "1,2,3"}
	sort.Strings(res.Cliques)
	if strings.Join(res.Cliques, " ") != strings.Join(want, " ") {
		t.Fatalf("cliques = %v, want %v", res.Cliques, want)
	}
	// At k = 2 the validate-only job lists the graph's edges, each once.
	res, err = RunKCliquesMR(e, c.FS(), "in/g", "w2", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Cliques), strings.Count(string(data), "\n"); got != want {
		t.Errorf("k=2: %d cliques %v, want the graph's %d edges", got, res.Cliques, want)
	}
	if _, err := RunKCliquesMR(e, c.FS(), "in/g", "w1", 1, 3); err == nil {
		t.Error("k=1 accepted")
	}
}
