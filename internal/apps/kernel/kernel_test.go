package kernel

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
)

// collect runs a kernel and returns the keys it emitted, in order.
func collect(t *testing.T, run func(emit func(core.KV) error) error) ([]string, error) {
	t.Helper()
	var keys []string
	err := run(func(kv core.KV) error {
		if kv.Value != int64(1) {
			t.Errorf("pair %q carries %v, want int64(1)", kv.Key, kv.Value)
		}
		keys = append(keys, kv.Key)
		return nil
	})
	return keys, err
}

func TestExtend(t *testing.T) {
	adj := func(vs ...int64) map[int64]bool {
		m := map[int64]bool{}
		for _, v := range vs {
			m[v] = true
		}
		return m
	}
	for _, tc := range []struct {
		clique string
		adj    map[int64]bool // the newest vertex's neighbors
		k      int
		want   string // emitted keys, space-separated
		err    bool
	}{
		{"5", adj(9, 1, 7), 2, "5,7 5,9", false},       // a vertex seeds its 2-cliques upwards
		{"0,1", adj(3, 0, 2), 3, "0,1,2 0,1,3", false}, // extended in ascending order
		{"0,1", adj(2, 3), 3, "", false},               // 0 is no neighbor of 1: no clique
		{"0,1,2", adj(0, 1), 3, "0,1,2", false},        // a valid k-clique is output whole
		{"0,1,2", adj(1), 3, "", false},
		{"0,1,2", nil, 3, "", false}, // no adjacency at all
		{"0,x", adj(0), 3, "", true},
	} {
		keys, err := collect(t, func(emit func(core.KV) error) error { return Extend(tc.clique, tc.adj, tc.k, emit) })
		if got := strings.Join(keys, " "); got != tc.want || (err != nil) != tc.err {
			t.Errorf("Extend(%q, %v, %d) = %q, %v; want %q, error %v", tc.clique, tc.adj, tc.k, got, err, tc.want, tc.err)
		}
	}
}

func TestEdgeLines(t *testing.T) {
	for _, tc := range []struct {
		line     string
		ok, bad  bool // an edge; an error
		directed string
	}{
		{"0 1", true, false, "0>1"},
		{" 7\t12 ", true, false, "7>12"},
		{"", false, false, ""},
		{"   ", false, false, ""},
		{"3 3", true, false, "3>3"}, // a self loop is a PageRank edge, no K-Cliques edge
		{"0 1 2", false, true, ""},
		{"0", false, true, ""},
	} {
		src, dst, ok, err := EdgeLine(tc.line)
		if ok != tc.ok || (err != nil) != tc.bad || (ok && src+">"+dst != tc.directed) {
			t.Errorf("EdgeLine(%q) = %q, %q, %v, %v", tc.line, src, dst, ok, err)
		}
		e, ok, err := UndirectedEdge(tc.line)
		wantOK := tc.ok && tc.line != "3 3"
		if ok != wantOK || (err != nil) != tc.bad || (ok && (e.U+">"+e.V != tc.directed || e.UID == e.VID)) {
			t.Errorf("UndirectedEdge(%q) = %+v, %v, %v", tc.line, e, ok, err)
		}
	}
	if _, ok, err := UndirectedEdge("a 1"); ok || err == nil {
		t.Errorf("UndirectedEdge accepted a vertex that is no id: %v, %v", ok, err)
	}
}

// TestMedoid: the upper median by (similarity, id), whatever order the
// members arrive in.
func TestMedoid(t *testing.T) {
	ms := []Member{{0.5, "c", "r1"}, {0.1, "a", "r2"}, {0.5, "b", "r3"}, {0.9, "d", "r4"}}
	if got := Medoid(ms); got.Ref != "r1" {
		t.Errorf("Medoid = %+v, want the member at index 2 of (0.1 a) (0.5 b) (0.5 c) (0.9 d)", got)
	}
	want := []Member{{0.1, "a", "r2"}, {0.5, "b", "r3"}, {0.5, "c", "r1"}, {0.9, "d", "r4"}}
	if !reflect.DeepEqual(ms, want) {
		t.Errorf("members ordered %+v, want %+v", ms, want)
	}
}

// naiveCosine is the cosine of two sparse vectors that walks both for
// their norms on every call: the scorer a prepared centroid replaces.
func naiveCosine(rec, cent map[int]float64) float64 {
	var dot, nr, nc float64
	for u, r := range rec {
		nr += r * r
		if c, ok := cent[u]; ok {
			dot += r * c
		}
	}
	for _, c := range cent {
		nc += c * c
	}
	if nr == 0 || nc == 0 {
		return 0
	}
	return dot / (math.Sqrt(nr) * math.Sqrt(nc))
}

// testUsers is the pool random movies and centroids draw their users
// from: -5..20, the last id a centroid's dense array can hold, and three
// it cannot, so the negative ids and the last three reach the map.
var testUsers = func() []int {
	var us []int
	for u := -5; u <= 20; u++ {
		us = append(us, u)
	}
	return append(us, datagen.DenseUsers-1, datagen.DenseUsers, 1<<20, 1<<20+1)
}()

// dense reports whether a centroid holds user u in its array.
func dense(u int) bool { return u >= 0 && u < datagen.DenseUsers }

// randomMovie is a movie line over testUsers, which repeats users and
// names some no centroid holds, and the vector it means: a repeated
// user's last rating. Some lines pass InlineRatings entries.
func randomMovie(rng *rand.Rand, i int) (string, map[int]float64) {
	line := "m" + strconv.Itoa(i) + ":"
	vec := map[int]float64{}
	n := rng.Intn(8)
	if rng.Intn(10) == 0 {
		n = datagen.InlineRatings + rng.Intn(20)
	}
	for j := 0; j < n; j++ {
		u, r := testUsers[rng.Intn(len(testUsers))], rng.Intn(6)
		if j > 0 {
			line += ","
		}
		line += "u" + strconv.Itoa(u) + "_" + strconv.Itoa(r)
		vec[u] = float64(r)
	}
	return line, vec
}

// TestPreparedCosineIsNaiveCosine holds the prepared scorer — Cosine,
// BestCluster and Assign — to the naive cosine bit for bit, over random
// integer-rated movies and centroids: empty (zero-norm) centroids, users
// on one side only, repeated users, negative ids, ids past the dense
// array, centroids held in the array only, in the map only and in both,
// and ties, which go to the lower index.
func TestPreparedCosineIsNaiveCosine(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	ties := 0
	var kinds [3]int // array only, map only, both
	for i := 0; i < 2000; i++ {
		var vecs []map[int]float64
		for k := 1 + rng.Intn(5); k > 0; k-- {
			v := map[int]float64{}
			switch {
			case len(vecs) > 0 && rng.Intn(4) == 0:
				for u, r := range vecs[rng.Intn(len(vecs))] { // a tie
					v[u] = r
				}
			case rng.Intn(5) != 0:
				where := rng.Intn(3) // array only, map only, either
				for e := rng.Intn(10); e >= 0; e-- {
					u := testUsers[rng.Intn(len(testUsers))]
					for where == 0 && !dense(u) || where == 1 && dense(u) {
						u = testUsers[rng.Intn(len(testUsers))]
					}
					v[u] = float64(1 + rng.Intn(5))
				}
			}
			inArray, inMap := false, false
			for u := range v {
				inArray, inMap = inArray || dense(u), inMap || !dense(u)
			}
			switch {
			case inArray && inMap:
				kinds[2]++
			case inArray:
				kinds[0]++
			case inMap:
				kinds[1]++
			}
			vecs = append(vecs, v)
		}
		cents := make([]Centroid, len(vecs))
		for c, v := range vecs {
			cents[c] = datagen.NewCentroid(v)
		}
		line, vec := randomMovie(rng, i)
		rec, ok := datagen.ParseMovie(line)
		if !ok {
			t.Fatalf("ParseMovie(%q) failed", line)
		}
		wantBest, wantSim := 0, -1.0
		for c, v := range vecs {
			want := naiveCosine(vec, v)
			if got := rec.Cosine(cents[c]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%q against %v: Cosine %v, naive %v", line, v, got, want)
			}
			if want > wantSim {
				wantBest, wantSim = c, want
			} else if want == wantSim {
				ties++
			}
		}
		best, sim := BestCluster(rec, cents)
		if best != wantBest || math.Float64bits(sim) != math.Float64bits(wantSim) {
			t.Fatalf("%q: BestCluster = %d, %v; naive %d, %v", line, best, sim, wantBest, wantSim)
		}
		id, cluster, sim, ok := Assign(line, cents)
		if len(vec) == 0 {
			if ok {
				t.Fatalf("Assign(%q) assigned a movie with no ratings to %s", line, cluster)
			}
			continue
		}
		if !ok || id != rec.ID || cluster != strconv.Itoa(wantBest) || math.Float64bits(sim) != math.Float64bits(wantSim) {
			t.Fatalf("Assign(%q) = %q, %q, %v, %v; want %q, %d, %v", line, id, cluster, sim, ok, rec.ID, wantBest, wantSim)
		}
	}
	if ties == 0 {
		t.Fatal("no case tied two centroids")
	}
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
		t.Fatalf("centroids held in the array only, the map only and both: %v, want some of each", kinds)
	}
}

// BenchmarkAssign scores movies shaped like the benchmark's K-Means input
// (17 ratings each) against four centroids.
func BenchmarkAssign(b *testing.B) {
	data := datagen.Movies(datagen.MoviesConfig{Seed: 1, Movies: 1000, Users: 500, MinRatings: 17, MaxRatings: 17})
	cents := datagen.InitialCentroids(data, 4)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := Assign(lines[i%len(lines)], cents); !ok {
			b.Fatal("no assignment")
		}
	}
}
