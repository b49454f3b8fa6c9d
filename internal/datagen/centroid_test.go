package datagen

import (
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// initialCentroidsSplit is InitialCentroids as it was when it split the
// whole input into a slice of lines first, kept as the reference the
// single walk is held to.
func initialCentroidsSplit(data []byte, k int) []Centroid {
	var recs []string
	for _, l := range strings.Split(string(data), "\n") {
		var buf [InlineRatings]Rating
		if _, ratings, ok := ParseMovieInto(l, buf[:0]); ok && len(ratings) > 0 {
			recs = append(recs, l)
		}
	}
	if k <= 0 || len(recs) == 0 {
		return nil
	}
	cents := make([]Centroid, 0, k)
	step := len(recs) / k
	if step == 0 {
		step = 1
	}
	for i := 0; i < k && i*step < len(recs); i++ {
		rec, _ := ParseMovie(recs[i*step])
		cents = append(cents, NewCentroid(rec.Vector()))
	}
	return cents
}

// TestInitialCentroidsMatchesLineSplit holds InitialCentroids to the
// split-first reference: the same centroids, entry for entry, and the same
// cosine to the bit against every record of the input, over hand-made
// edge cases (no data, only newlines, no trailing newline, blank,
// malformed and rating-less lines, ids either side of the dense range,
// k <= 0 and k past the record count) and 500 seeded Movies inputs.
func TestInitialCentroidsMatchesLineSplit(t *testing.T) {
	check := func(name string, data []byte, k int) {
		t.Helper()
		got, want := InitialCentroids(data, k), initialCentroidsSplit(data, k)
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("%s, k=%d: %d centroids (nil %v), reference %d (nil %v)", name, k, len(got), got == nil, len(want), want == nil)
		}
		var probes []MovieRecord
		for _, l := range strings.Split(string(data), "\n") {
			if rec, ok := ParseMovie(l); ok {
				probes = append(probes, rec)
			}
		}
		for i := range got {
			if !maps.Equal(got[i].Vector(), want[i].Vector()) {
				t.Fatalf("%s, k=%d: centroid %d is %v, reference %v", name, k, i, got[i].Vector(), want[i].Vector())
			}
			for _, rec := range probes {
				g, w := rec.Cosine(got[i]), rec.Cosine(want[i])
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s, k=%d: %s against centroid %d scores %v, reference %v", name, k, rec.ID, i, g, w)
				}
			}
		}
	}
	fixed := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"only newlines", "\n\n\n"},
		{"no trailing newline", "movie1:u1_3,u2_4\nmovie2:u2_5"},
		{"one line, no newline", "movie1:u1_3,u2_4"},
		{"blank and malformed", "\nmovie1:u1_3\n\nbad line\nmovie2:u3_x\n:u1_2\nmovie4:u2_5,u7_1\n\n"},
		{"no ratings", "movie1:\nmovie2:\n"},
		{"ratings and none", "movie1:\nmovie2:u1_1\nmovie3:\nmovie4:u4_4,u1_2\n"},
		{"ids off the dense range", "movie1:u70000_3,u-4_2,u1_1\nmovie2:u1048576_5,u3_3\nmovie3:u-1_1\nmovie4:u65535_2,u65536_4\n"},
		{"repeated user", "movie1:u1_3,u1_5,u2_2\nmovie2:u2_2,u1_1,u2_4\n"},
	}
	for _, c := range fixed {
		for k := -1; k <= 6; k++ {
			check(c.name, []byte(c.data), k)
		}
	}
	rng := rand.New(rand.NewSource(58))
	for i := 0; i < 500; i++ {
		cfg := MoviesConfig{Seed: int64(i), Movies: 1 + rng.Intn(40), Users: 5 + rng.Intn(60), MinRatings: 1 + rng.Intn(5)}
		cfg.MaxRatings = cfg.MinRatings + rng.Intn(10)
		data := Movies(cfg)
		switch rng.Intn(4) {
		case 0:
			data = data[:len(data)-1] // no trailing newline
		case 1:
			data = []byte(strings.ReplaceAll(string(data), "\n", "\n\n")) // blank lines
		}
		check("Movies", data, rng.Intn(cfg.Movies+4)-1)
	}
}

var sinkCentroids int

func BenchmarkInitialCentroids(b *testing.B) {
	data := Movies(MoviesConfig{Seed: 1, Movies: 20000, Users: 500, MinRatings: 17, MaxRatings: 17})
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkCentroids += len(InitialCentroids(data, 4))
	}
}
