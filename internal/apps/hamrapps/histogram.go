package hamrapps

import (
	"math"
	"strconv"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
)

// MovieAvgBucket is the HistogramMovies map flowlet: parse a movie record,
// compute its average rating, and emit one count for the half-star bucket
// (1.0, 1.5, ..., 5.0) it falls in — 8 buckets, like the PUMA benchmark.
type MovieAvgBucket struct{}

// bucketKeys are the half-star buckets 1.0 ... 5.0, indexed by 2b-2.
var bucketKeys = [...]string{"1.0", "1.5", "2.0", "2.5", "3.0", "3.5", "4.0", "4.5", "5.0"}

// BucketKey is the half-star bucket of an average rating, to one decimal:
// the average rounded to the nearest half star and clamped to 1.0 ... 5.0.
func BucketKey(avg float64) string {
	i := math.Round(avg*2) - 2
	if !(i > 0) { // also NaN
		i = 0
	}
	return bucketKeys[int(math.Min(i, float64(len(bucketKeys)-1)))]
}

// Map implements core.Mapper.
func (MovieAvgBucket) Map(kv core.KV, ctx core.Context) error {
	rec, ok := datagen.ParseMovie(kv.Value.(string))
	if !ok || len(rec.Ratings) == 0 {
		return nil
	}
	return ctx.Emit(core.KV{Key: BucketKey(rec.AvgRating()), Value: int64(1)})
}

// RatingExplode is the HistogramRatings map flowlet: emit one count per
// individual user rating. The key space is exactly five values (1..5), the
// extreme skew behind the paper's 0.26x result (§5.2): the shuffle routes
// everything to at most five nodes and each hot node folds into a single
// shared variable.
type RatingExplode struct{}

// Map implements core.Mapper.
func (RatingExplode) Map(kv core.KV, ctx core.Context) error {
	return datagen.EachRating(kv.Value.(string), func(_ int, r float64) error {
		return ctx.Emit(core.KV{Key: strconv.Itoa(int(r)), Value: int64(1)})
	})
}

// HistogramOptions configures the two histogram benchmarks.
type HistogramOptions struct {
	Loader core.Loader
	// Combiner adds the node-local pre-aggregation of Table 3.
	Combiner bool
	// SerializeUpdates applies the paper's proposed fix for hot shared
	// variables: one updater at a time per node (§5.2).
	SerializeUpdates bool
}

// buildCount is the graph the three counting benchmarks share: a map
// flowlet, named mapName, emitting (key, 1) into a shuffled partial-reduce
// sum, with an optional node-local sum before the shuffle.
func buildCount(name, mapName string, mapper core.Mapper, opts HistogramOptions) (*core.Graph, *core.CollectSink, error) {
	// The loader's lines carry no keys; they are parsed on the node that
	// holds them (§3.3), so the edge is explicitly local.
	p := core.NewPipeline(name, "load", opts.Loader).
		Via(core.WithRouting(core.RouteLocal)).
		Map(mapName, mapper)
	if opts.Combiner {
		p.Via(core.WithRouting(core.RouteLocal)).PartialReduce("combine", SumCounts{})
	}
	g, sink, err := p.PartialReduce("count", SumCounts{}).Collect()
	if err == nil && opts.SerializeUpdates {
		g.Flowlets()[g.FlowletID("count")].SerializeUpdates = true
	}
	return g, sink, err
}

// BuildHistogramMovies constructs the HistogramMovies graph:
//
//	loader -> avg+bucket(map) -> [combine ->] count(partial reduce) -> sink
func BuildHistogramMovies(opts HistogramOptions) (*core.Graph, *core.CollectSink, error) {
	return buildCount("histogram-movies", "bucket", MovieAvgBucket{}, opts)
}

// BuildHistogramRatings constructs the HistogramRatings graph:
//
//	loader -> explode(map) -> [combine ->] count(partial reduce) -> sink
func BuildHistogramRatings(opts HistogramOptions) (*core.Graph, *core.CollectSink, error) {
	return buildCount("histogram-ratings", "bucket", RatingExplode{}, opts)
}
