package hamrapps

import (
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
)

// SplitWords is the WordCount map flowlet: line -> (word, 1).
type SplitWords struct{}

// Map implements core.Mapper.
func (SplitWords) Map(kv core.KV, ctx core.Context) error {
	return datagen.EachField(kv.Value.(string), func(w string) error {
		return ctx.Emit(core.KV{Key: w, Value: int64(1)})
	})
}

// SumCounts is a partial reduce folding int64 counts — WordCount "can
// apply partial reduce to increase the count as soon as the occurrence of
// the word" (§4). The operation is commutative and associative, the
// paper's requirement for partial reduce.
type SumCounts struct{}

// count is a key's running sum. The state is the pointer, so an update adds
// in place where an int64 state would be boxed anew on every update.
type count struct{ n int64 }

// SizeBytes implements core.Sizer: the memory manager is charged what an
// int64 state would be.
func (*count) SizeBytes() int64 { return 8 }

// Update implements core.PartialReducer.
func (SumCounts) Update(key string, state, value any) (any, error) {
	if state == nil {
		return &count{n: value.(int64)}, nil
	}
	state.(*count).n += value.(int64)
	return state, nil
}

// Finish implements core.PartialReducer.
func (SumCounts) Finish(key string, state any, ctx core.Context) error {
	return ctx.Emit(core.KV{Key: key, Value: state.(*count).n})
}

// WordCountOptions configures BuildWordCount.
type WordCountOptions struct {
	// Loader supplies the input lines.
	Loader core.Loader
	// Combiner inserts a node-local pre-aggregation flowlet before the
	// shuffle (Table 3's HAMR combiner).
	Combiner bool
}

// BuildWordCount constructs the WordCount flowlet graph:
//
//	loader -> split(map) -> [combine(local partial reduce) ->] count(partial reduce) -> sink
func BuildWordCount(opts WordCountOptions) (*core.Graph, *core.CollectSink, error) {
	return buildCount("wordcount", "split", SplitWords{}, HistogramOptions{Loader: opts.Loader, Combiner: opts.Combiner})
}
