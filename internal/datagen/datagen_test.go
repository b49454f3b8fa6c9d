package datagen

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestZipfDeterministicAndInRange(t *testing.T) {
	mk := func() *Zipf { return NewZipf(rand.New(rand.NewSource(7)), 100, 1.0) }
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatalf("sample %d: %d != %d under same seed", i, va, vb)
		}
		if va < 0 || va >= 100 {
			t.Fatalf("sample out of range: %d", va)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(rand.New(rand.NewSource(1)), 1000, 1.0)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank-0 frequency should be about 1/H(1000) ~ 13%, and clearly above
	// rank 9 which should be ~10x rarer.
	if counts[0] < n/20 {
		t.Errorf("rank 0 drawn %d times of %d, too uniform", counts[0], n)
	}
	ratio := float64(counts[0]) / float64(counts[9]+1)
	if ratio < 5 || ratio > 20 {
		t.Errorf("rank0/rank9 ratio %.1f, want ~10 for s=1", ratio)
	}
}

// Property: any (n, s) gives in-range samples and the sampler is a pure
// function of its seed.
func TestZipfProperty(t *testing.T) {
	f := func(nRaw uint16, sRaw uint8, seed int64) bool {
		n := int(nRaw)%500 + 1
		s := float64(sRaw%30)/10 + 0.1
		a := NewZipf(rand.New(rand.NewSource(seed)), n, s)
		b := NewZipf(rand.New(rand.NewSource(seed)), n, s)
		for i := 0; i < 50; i++ {
			va, vb := a.Next(), b.Next()
			if va != vb || va < 0 || va >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestTextShape(t *testing.T) {
	cfg := TextConfig{Seed: 1, Vocabulary: 50, WordsPerLine: 7, Lines: 200}
	data := Text(cfg)
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 200 {
		t.Fatalf("%d lines", len(lines))
	}
	for i, l := range lines {
		words := strings.Fields(l)
		if len(words) != 7 {
			t.Fatalf("line %d has %d words", i, len(words))
		}
		for _, w := range words {
			if !strings.HasPrefix(w, "w") {
				t.Fatalf("bad word %q", w)
			}
			k, err := strconv.Atoi(w[1:])
			if err != nil || k < 0 || k >= 50 {
				t.Fatalf("word %q out of vocabulary", w)
			}
		}
	}
	if !bytes.Equal(data, Text(cfg)) {
		t.Fatal("Text not deterministic")
	}
}

func TestDocsShape(t *testing.T) {
	cfg := DocsConfig{Seed: 2, Labels: 3, Vocabulary: 40, WordsPerDoc: 9, Docs: 100}
	data := Docs(cfg)
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 100 {
		t.Fatalf("%d docs", len(lines))
	}
	labels := map[string]bool{}
	for _, l := range lines {
		tab := strings.IndexByte(l, '\t')
		if tab <= 0 {
			t.Fatalf("doc without label: %q", l)
		}
		labels[l[:tab]] = true
		if n := len(strings.Fields(l[tab+1:])); n != 9 {
			t.Fatalf("doc has %d words", n)
		}
	}
	if len(labels) != 3 {
		t.Fatalf("%d distinct labels, want 3", len(labels))
	}
}

func TestMoviesParseRoundTrip(t *testing.T) {
	cfg := MoviesConfig{Seed: 3, Movies: 150, Users: 40, MinRatings: 3, MaxRatings: 12}
	data := Movies(cfg)
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 150 {
		t.Fatalf("%d movies", len(lines))
	}
	ids := map[string]bool{}
	for _, l := range lines {
		rec, ok := ParseMovie(l)
		if !ok {
			t.Fatalf("unparsable record %q", l)
		}
		if ids[rec.ID] {
			t.Fatalf("duplicate movie id %s", rec.ID)
		}
		ids[rec.ID] = true
		if len(rec.Ratings) == 0 {
			t.Fatalf("movie %s has no ratings", rec.ID)
		}
		for _, r := range rec.Ratings {
			if r.User < 0 || r.User >= 40 {
				t.Fatalf("user %d out of range", r.User)
			}
			if r.Rating < 1 || r.Rating > 5 {
				t.Fatalf("rating %v out of range", r.Rating)
			}
		}
		avg := rec.AvgRating()
		if avg < 1 || avg > 5 {
			t.Fatalf("avg %v out of range", avg)
		}
	}
	if !bytes.Equal(data, Movies(cfg)) {
		t.Fatal("Movies not deterministic")
	}
}

func TestParseMovieRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "noseparator", ":u1_5", "m1:x1_5", "m1:u1-5", "m1:u1_x"} {
		if _, ok := ParseMovie(bad); ok && bad != ":u1_5" {
			if bad == "" || bad == "noseparator" || strings.HasPrefix(bad, "m1:") {
				t.Errorf("ParseMovie(%q) accepted", bad)
			}
		}
	}
	if _, ok := ParseMovie("movie1:"); !ok {
		t.Error("movie with zero ratings should parse")
	}
}

func TestCosine(t *testing.T) {
	rec := MovieRecord{ID: "m", Ratings: []Rating{{User: 1, Rating: 3}, {User: 2, Rating: 4}}}
	if got := rec.Cosine(NewCentroid(rec.Vector())); math.Abs(got-1) > 1e-12 {
		t.Errorf("self cosine = %v", got)
	}
	if got := rec.Cosine(NewCentroid(map[int]float64{3: 5})); got != 0 {
		t.Errorf("orthogonal cosine = %v", got)
	}
	if got := rec.Cosine(NewCentroid(nil)); got != 0 {
		t.Errorf("empty centroid cosine = %v", got)
	}
	if got := rec.Cosine(Centroid{}); got != 0 {
		t.Errorf("zero centroid cosine = %v", got)
	}
}

func TestInitialCentroids(t *testing.T) {
	data := Movies(MoviesConfig{Seed: 5, Movies: 100, Users: 30})
	cents := InitialCentroids(data, 4)
	if len(cents) != 4 {
		t.Fatalf("%d centroids", len(cents))
	}
	for i, c := range cents {
		if len(c.Vector()) == 0 {
			t.Errorf("centroid %d empty", i)
		}
	}
	if got := InitialCentroids(nil, 4); got != nil {
		t.Errorf("centroids from no data: %v", got)
	}
}

func TestWebGraphShape(t *testing.T) {
	cfg := WebGraphConfig{Seed: 6, Pages: 200, OutLinks: 5}
	data := WebGraph(cfg)
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	outdeg := map[int]int{}
	indeg := map[int]int{}
	type edge struct{ s, d int }
	seen := map[edge]bool{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) != 2 {
			t.Fatalf("bad edge %q", l)
		}
		s, _ := strconv.Atoi(f[0])
		d, _ := strconv.Atoi(f[1])
		if s < 0 || s >= 200 || d < 0 || d >= 200 || s == d {
			t.Fatalf("edge out of range or self loop: %q", l)
		}
		if seen[edge{s, d}] {
			t.Fatalf("duplicate edge %q", l)
		}
		seen[edge{s, d}] = true
		outdeg[s]++
		indeg[d]++
	}
	if len(outdeg) != 200 {
		t.Fatalf("%d pages have out-links, want all 200", len(outdeg))
	}
	// Zipfian in-degree: page 0 should have far more in-links than the
	// median page.
	if indeg[0] < 20 {
		t.Errorf("page 0 in-degree %d, want heavy head", indeg[0])
	}
	if !bytes.Equal(data, WebGraph(cfg)) {
		t.Fatal("WebGraph not deterministic")
	}
}

func TestRMATShape(t *testing.T) {
	cfg := RMATConfig{Seed: 7, Scale: 7, Edges: 500}
	data := RMAT(cfg)
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || len(lines) > 500 {
		t.Fatalf("%d edges", len(lines))
	}
	type edge struct{ u, v int }
	seen := map[edge]bool{}
	for _, l := range lines {
		f := strings.Fields(l)
		u, _ := strconv.Atoi(f[0])
		v, _ := strconv.Atoi(f[1])
		if u >= v {
			t.Fatalf("edge not canonical: %q", l)
		}
		if u < 0 || v >= 128 {
			t.Fatalf("vertex out of range: %q", l)
		}
		if seen[edge{u, v}] {
			t.Fatalf("duplicate edge %q", l)
		}
		seen[edge{u, v}] = true
	}
	if !bytes.Equal(data, RMAT(cfg)) {
		t.Fatal("RMAT not deterministic")
	}
}

func TestCliqueTestGraph(t *testing.T) {
	data := CliqueTestGraph(4, 6)
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	// K(4) has 6 edges, ring over 6 has 6 edges (5 unique after i==j skip).
	if len(lines) < 10 {
		t.Fatalf("%d edges", len(lines))
	}
	adj := map[int]map[int]bool{}
	for _, l := range lines {
		f := strings.Fields(l)
		u, _ := strconv.Atoi(f[0])
		v, _ := strconv.Atoi(f[1])
		if adj[u] == nil {
			adj[u] = map[int]bool{}
		}
		if adj[v] == nil {
			adj[v] = map[int]bool{}
		}
		adj[u][v], adj[v][u] = true, true
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && !adj[i][j] {
				t.Fatalf("clique edge %d-%d missing", i, j)
			}
		}
	}
}
