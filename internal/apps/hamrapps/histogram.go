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

// BucketKey renders a histogram bucket to one decimal.
func BucketKey(b float64) string {
	if i := b*2 - 2; i >= 0 && i < float64(len(bucketKeys)) && i == math.Trunc(i) {
		return bucketKeys[int(i)]
	}
	return strconv.FormatFloat(b, 'f', 1, 64)
}

// Map implements core.Mapper.
func (MovieAvgBucket) Map(kv core.KV, ctx core.Context) error {
	rec, ok := datagen.ParseMovie(kv.Value.(string))
	if !ok || len(rec.Ratings) == 0 {
		return nil
	}
	avg := rec.AvgRating()
	bucket := math.Round(avg*2) / 2
	if bucket < 1 {
		bucket = 1
	}
	if bucket > 5 {
		bucket = 5
	}
	return ctx.Emit(core.KV{Key: BucketKey(bucket), Value: int64(1)})
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
	g := core.NewGraph(name)
	sink := core.NewCollectSink()
	ld, err := g.AddLoader("load", opts.Loader)
	if err != nil {
		return nil, nil, err
	}
	mp, err := g.AddMap(mapName, mapper)
	if err != nil {
		return nil, nil, err
	}
	prev := mp
	if opts.Combiner {
		cb, err := g.AddPartialReduce("combine", SumCounts{})
		if err != nil {
			return nil, nil, err
		}
		if err := g.Connect(mp, cb, core.WithRouting(core.RouteLocal)); err != nil {
			return nil, nil, err
		}
		prev = cb
	}
	cnt, err := g.AddPartialReduce("count", SumCounts{})
	if err != nil {
		return nil, nil, err
	}
	if opts.SerializeUpdates {
		g.Flowlets()[cnt].SerializeUpdates = true
	}
	sk, err := g.AddSink("out", sink)
	if err != nil {
		return nil, nil, err
	}
	// The loader's lines carry no keys; they are parsed on the node that
	// holds them (§3.3), so the edge is explicitly local.
	if err := g.Connect(ld, mp, core.WithRouting(core.RouteLocal)); err != nil {
		return nil, nil, err
	}
	if err := g.Connect(prev, cnt); err != nil {
		return nil, nil, err
	}
	if err := g.Connect(cnt, sk); err != nil {
		return nil, nil, err
	}
	return g, sink, nil
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
