package hamrapps

import (
	"github.com/hamr-go/hamr/internal/apps/kernel"
	"github.com/hamr-go/hamr/internal/core"
)

// MovieAvgBucket is the HistogramMovies map flowlet (kernel.MovieBucket).
type MovieAvgBucket struct{}

// Map implements core.Mapper.
func (MovieAvgBucket) Map(kv core.KV, ctx core.Context) error {
	return kernel.MovieBucket(kv.Value.(string), ctx.Emit)
}

// RatingExplode is the HistogramRatings map flowlet (kernel.Ratings): the
// shuffle routes everything to at most five nodes and each hot node folds
// into a single shared variable (§5.2).
type RatingExplode struct{}

// Map implements core.Mapper.
func (RatingExplode) Map(kv core.KV, ctx core.Context) error {
	return kernel.Ratings(kv.Value.(string), ctx.Emit)
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
