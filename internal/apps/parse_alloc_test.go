package apps_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/kernel"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
)

// countEmits stands in for either engine's emitter: it counts the pairs and
// keeps nothing, so what a guard measures is the mapper alone.
type countEmits struct {
	core.Context
	n int
}

func (c *countEmits) Emit(core.KV) error           { c.n++; return nil }
func (c *countEmits) EmitTo(string, core.KV) error { c.n++; return nil }
func (c *countEmits) Charge(int64) error           { return nil }

// TestParsePathAllocs holds the first hop of the record path — line ->
// record -> emit — to its allocation budget: a parsed record costs its
// ratings slice and nothing else, a mapper costs the values it emits and
// no ratings slice, and a mapper that emits constants, or a count that
// already has its state, costs nothing at all. What a job allocates beyond
// these is the engines', which is what the benchmark's allocation gate is
// there to watch.
func TestParsePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	movie := strings.TrimRight(string(datagen.Movies(datagen.MoviesConfig{Seed: 1, Movies: 1, MinRatings: 30})), "\n")
	text := strings.TrimRight(string(datagen.Text(datagen.TextConfig{Seed: 1, Lines: 1})), "\n")
	movieKV, textKV := core.KV{Value: movie}, core.KV{Value: text}
	out := &countEmits{}
	mrWordCount := mrapps.WordCountJob("in", "out", true, 1).NewMapper()
	mrRatings := mrapps.HistogramRatingsJob("in", "out", true, 1).NewMapper()
	mrMovies := mrapps.HistogramMoviesJob("in", "out", true, 1).NewMapper()
	cents := datagen.InitialCentroids(datagen.Movies(datagen.MoviesConfig{Seed: 2, Movies: 40}), 4)
	positionKV := core.KV{Key: hamrapps.Position{Node: 0, File: "input/kmeans-part-0000", Offset: 4096}.String(), Value: movie}
	mrKMeans := mrapps.KMeansJob("in", "out", cents, 1).NewMapper()
	mrClassify := mrapps.ClassificationJob("in", "out", cents, 1, true).NewMapper()
	var state any
	var thousand any = int64(1000)
	sum := func() {
		var err error
		if state, err = (hamrapps.SumCounts{}).Update("k", state, thousand); err != nil {
			t.Fatal(err)
		}
	}
	sum() // a key's first update makes its state

	for _, tc := range []struct {
		name  string
		max   float64
		emits int // pairs one call must emit at least, so that a budget is not met by walking nothing
		run   func() error
	}{
		{"ParseMovie", 1, 0, func() error {
			if rec, ok := datagen.ParseMovie(movie); !ok || len(rec.Ratings) < 5 {
				return fmt.Errorf("ParseMovie(%q) = %v, %v", movie, rec, ok)
			}
			return nil
		}},
		{"EachRating", 0, 5, func() error {
			return datagen.EachRating(movie, func(int, float64) error { out.n++; return nil })
		}},
		// Each kernel behind both engines' adapters: a record costs what
		// the kernel costs, whichever engine calls it.
		{"hamrapps.RatingExplode.Map", 0, 5, func() error { return hamrapps.RatingExplode{}.Map(movieKV, out) }},
		{"mrapps.HistogramRatingsJob mapper", 0, 5, func() error { return mrRatings.Map(movieKV, out) }},
		{"hamrapps.MovieAvgBucket.Map", 0, 1, func() error { return hamrapps.MovieAvgBucket{}.Map(movieKV, out) }},
		{"mrapps.HistogramMoviesJob mapper", 0, 1, func() error { return mrMovies.Map(movieKV, out) }},
		// K-Means and Classification score a record against prepared
		// centroids with its ratings on the stack: what a mapper allocates
		// is the values it emits. ClusterGen boxes the movie id for the
		// local assignment, then builds and boxes "pos;sim;id"; the PUMA
		// K-Means mapper builds and boxes "sim;record"; Classify boxes the
		// id; the PUMA Classification mapper passes its input value on.
		{"kernel.Assign", 0, 0, func() error {
			if _, _, _, ok := kernel.Assign(movie, cents); !ok {
				return fmt.Errorf("Assign(%q) assigned nothing", movie)
			}
			return nil
		}},
		{"hamrapps.ClusterGen.Map", 3, 2, func() error { return (&hamrapps.ClusterGen{Centroids: cents}).Map(positionKV, out) }},
		{"hamrapps.Classify.Map", 1, 1, func() error { return (&hamrapps.Classify{Centroids: cents}).Map(movieKV, out) }},
		{"mrapps.KMeansJob mapper", 2, 1, func() error { return mrKMeans.Map(movieKV, out) }},
		{"mrapps.ClassificationJob mapper", 0, 1, func() error { return mrClassify.Map(movieKV, out) }},
		{"hamrapps.SplitWords.Map", 0, 10, func() error { return hamrapps.SplitWords{}.Map(textKV, out) }},
		{"mrapps.WordCountJob mapper", 0, 10, func() error { return mrWordCount.Map(textKV, out) }},
		{"hamrapps.SumCounts.Update", 0, 0, func() error { sum(); return nil }},
	} {
		out.n = 0
		allocs := testing.AllocsPerRun(100, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: %.1f allocations per call, budget %.0f", tc.name, allocs, tc.max)
		}
		if out.n < 101*tc.emits { // AllocsPerRun warms up with one call more
			t.Errorf("%s: %d pairs over 101 calls, want at least %d a call", tc.name, out.n, tc.emits)
		}
	}
	if got := state.(core.Sizer).SizeBytes(); got != 8 {
		t.Errorf("a count's state reports %d bytes to the memory manager, want an int64's 8", got)
	}
}
