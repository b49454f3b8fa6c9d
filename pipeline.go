package hamr

import (
	"fmt"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/core"
)

// Re-exported loaders for common input sources.
type (
	// LocalTextLoader reads text files from each node's local disk.
	LocalTextLoader = hamrapps.LocalTextLoader
	// HDFSTextLoader streams an HDFS file or prefix with block locality.
	HDFSTextLoader = hamrapps.HDFSTextLoader
)

// DistributeLocalText splits text data into per-node local files and
// returns the file map a LocalTextLoader consumes.
func DistributeLocalText(c *Cluster, name string, data []byte, parts int) (map[int][]string, error) {
	return hamrapps.DistributeLocalText(c, name, data, parts)
}

// Pipeline builds linear flowlet graphs fluently:
//
//	g, sink, err := hamr.NewPipeline("wordcount", loader).
//	    Map("split", splitWords{}).
//	    PartialReduce("count", sumCounts{}).
//	    Collect()
//
// Stages are connected in order with shuffle routing (overridable per
// stage with Via); run the graph with Cluster.Run or Cluster.RunContext.
type Pipeline = core.Pipeline

// NewPipeline starts a pipeline at a loader stage named "load".
func NewPipeline(name string, loader Loader) *Pipeline {
	return core.NewPipeline(name, "load", loader)
}

// MapFunc adapts a function to Mapper.
type MapFunc = core.MapFunc

// ReduceFunc adapts a function to Reducer.
type ReduceFunc = core.ReduceFunc

// Fold builds a PartialReducer from an update function and an optional
// finish formatter (default: emit the final state under the key).
func Fold(update func(key string, state, value any) (any, error),
	finish func(key string, state any, ctx Context) error) PartialReducer {
	if finish == nil {
		finish = func(key string, state any, ctx Context) error {
			return ctx.Emit(KV{Key: key, Value: state})
		}
	}
	return foldReducer{update: update, finish: finish}
}

type foldReducer struct {
	update func(key string, state, value any) (any, error)
	finish func(key string, state any, ctx Context) error
}

func (f foldReducer) Update(key string, state, value any) (any, error) {
	return f.update(key, state, value)
}

func (f foldReducer) Finish(key string, state any, ctx Context) error {
	return f.finish(key, state, ctx)
}

// SumInt64 is a ready-made partial reducer summing int64 values.
func SumInt64() PartialReducer {
	return Fold(func(key string, state, value any) (any, error) {
		v, ok := value.(int64)
		if !ok {
			return nil, fmt.Errorf("hamr: SumInt64 got %T", value)
		}
		if state == nil {
			return v, nil
		}
		return state.(int64) + v, nil
	}, nil)
}

// SliceLoader is a convenience loader over in-memory string chunks; each
// chunk becomes one split and each string one ("", line) pair.
type SliceLoader struct {
	Chunks [][]string
}

// Plan implements Loader.
func (l *SliceLoader) Plan(env *Env) ([]Split, error) {
	if len(l.Chunks) == 0 {
		return nil, fmt.Errorf("hamr: SliceLoader has no chunks")
	}
	splits := make([]Split, len(l.Chunks))
	for i, c := range l.Chunks {
		splits[i] = Split{Payload: c, PreferredNode: -1, Size: int64(len(c))}
	}
	return splits, nil
}

// Load implements Loader.
func (l *SliceLoader) Load(sp Split, ctx Context) error {
	for _, line := range sp.Payload.([]string) {
		if err := ctx.Emit(KV{Key: "", Value: line}); err != nil {
			return err
		}
	}
	return nil
}

var _ core.Loader = (*SliceLoader)(nil)
