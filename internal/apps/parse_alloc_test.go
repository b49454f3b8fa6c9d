package apps_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
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

func (c *countEmits) Emit(core.KV) error { c.n++; return nil }
func (c *countEmits) Charge(int64) error { return nil }

// TestParsePathAllocs holds the first hop of the record path — line ->
// record -> emit — to its allocation budget: a record costs its ratings
// slice and nothing else, and a mapper that does not keep the record, or a
// count that already has its state, costs nothing at all. What a job
// allocates beyond these is the engines', which is what the benchmark's
// allocation gate is there to watch.
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
		{"hamrapps.MovieAvgBucket.Map", 1, 1, func() error { return hamrapps.MovieAvgBucket{}.Map(movieKV, out) }},
		{"mrapps.HistogramMoviesJob mapper", 1, 1, func() error { return mrMovies.Map(movieKV, out) }},
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
