package core

// Pipeline builds a chain of flowlets fluently:
//
//	g, sink, err := core.NewPipeline("wordcount", "load", loader).
//	    Map("split", splitWords{}).
//	    PartialReduce("count", sumCounts{}).
//	    Collect()
//
// Each stage is connected to the one before it with shuffle routing (into
// a sink: local), overridable per stage with Via. The first error is kept
// and returned by Sink or Collect. A graph that is more than a chain takes
// its extra flowlets and edges from the Graph methods afterwards.
type Pipeline struct {
	g      *Graph
	prev   int
	nextRt []EdgeOption
	err    error
}

// NewPipeline starts a pipeline for graph name at a loader stage named
// stage.
func NewPipeline(name, stage string, loader Loader) *Pipeline {
	p := &Pipeline{g: NewGraph(name)}
	p.prev, p.err = p.g.AddLoader(stage, loader)
	return p
}

// Via sets edge options for the next connection only.
func (p *Pipeline) Via(opts ...EdgeOption) *Pipeline {
	p.nextRt = opts
	return p
}

// then connects the previous stage to the one just added as id.
func (p *Pipeline) then(id int, err error) *Pipeline {
	if p.err != nil {
		return p
	}
	if err == nil {
		err = p.g.Connect(p.prev, id, p.nextRt...)
	}
	p.prev, p.nextRt, p.err = id, nil, err
	return p
}

// Map appends a map stage.
func (p *Pipeline) Map(name string, m Mapper) *Pipeline { return p.then(p.g.AddMap(name, m)) }

// Filter appends a map stage that forwards only pairs keep returns true
// for.
func (p *Pipeline) Filter(name string, keep func(KV) bool) *Pipeline {
	return p.Map(name, MapFunc(func(kv KV, ctx Context) error {
		if !keep(kv) {
			return nil
		}
		return ctx.Emit(kv)
	}))
}

// FlatMap appends a map stage whose function may emit zero or more pairs
// per input pair through the emit callback.
func (p *Pipeline) FlatMap(name string, fn func(kv KV, emit func(KV) error) error) *Pipeline {
	return p.Map(name, MapFunc(func(kv KV, ctx Context) error {
		return fn(kv, ctx.Emit)
	}))
}

// Reduce appends a reduce stage.
func (p *Pipeline) Reduce(name string, r Reducer) *Pipeline { return p.then(p.g.AddReduce(name, r)) }

// PartialReduce appends a partial-reduce stage.
func (p *Pipeline) PartialReduce(name string, r PartialReducer) *Pipeline {
	return p.then(p.g.AddPartialReduce(name, r))
}

// Sink terminates the pipeline with a caller-provided sink and returns the
// finished graph.
func (p *Pipeline) Sink(name string, s Sink) (*Graph, error) {
	if p.then(p.g.AddSink(name, s)).err != nil {
		return nil, p.err
	}
	return p.g, nil
}

// Collect terminates the pipeline with a CollectSink named "out".
func (p *Pipeline) Collect() (*Graph, *CollectSink, error) {
	sink := NewCollectSink()
	g, err := p.Sink("out", sink)
	if err != nil {
		return nil, nil, err
	}
	return g, sink, nil
}

// MapFunc adapts a function to Mapper.
type MapFunc func(kv KV, ctx Context) error

// Map implements Mapper.
func (f MapFunc) Map(kv KV, ctx Context) error { return f(kv, ctx) }

// ReduceFunc adapts a function to Reducer.
type ReduceFunc func(key string, values []any, ctx Context) error

// Reduce implements Reducer.
func (f ReduceFunc) Reduce(key string, values []any, ctx Context) error {
	return f(key, values, ctx)
}
