package core

import (
	"fmt"
)

// Kind enumerates the four flowlet kinds of §2 plus the internal sink kind
// used for job outputs.
type Kind int

const (
	// KindLoader flowlets pull data from sources; only loaders are ready
	// when a job starts.
	KindLoader Kind = iota
	// KindMap flowlets transform pairs one at a time and may connect to
	// any other flowlet kind.
	KindMap
	// KindReduce flowlets collect all pairs grouped by key and process
	// group by group after every upstream flowlet completes (an internal
	// barrier, like the MapReduce reducer).
	KindReduce
	// KindPartialReduce flowlets fold pairs into per-key state as soon as
	// they arrive (requires a commutative, associative operation) and emit
	// only when upstreams complete.
	KindPartialReduce
	// KindSink terminates the graph, writing pairs to a job output.
	KindSink
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindLoader:
		return "loader"
	case KindMap:
		return "map"
	case KindReduce:
		return "reduce"
	case KindPartialReduce:
		return "partial-reduce"
	case KindSink:
		return "sink"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Split is one unit of loader input, planned on the driver and executed on
// one node. Payload is loader-specific (e.g. an hdfs.Split, a file name, a
// generator seed range).
type Split struct {
	Payload any
	// PreferredNode is the node that holds the data locally, or -1.
	PreferredNode int
	// Size is the approximate input bytes, used for balancing.
	Size int64
}

// Context is handed to user flowlet code. It routes emitted pairs to
// downstream flowlets and exposes the node environment.
type Context interface {
	// Emit sends kv to every downstream flowlet along each edge's routing
	// (shuffle by default).
	Emit(kv KV) error
	// EmitTo sends kv only to the named downstream flowlet.
	EmitTo(flowlet string, kv KV) error
	// EmitToNode sends kv to the named downstream flowlet on a specific
	// node, bypassing the partitioner (used for locality routing, §3.3).
	EmitToNode(flowlet string, node int, kv KV) error
	// EmitBroadcast sends kv to the named downstream flowlet on every node.
	EmitBroadcast(flowlet string, kv KV) error
	// Node returns this node's id in [0, NumNodes).
	Node() int
	// NumNodes returns the cluster size.
	NumNodes() int
	// Service returns a named node-local service installed by the cluster
	// (e.g. "hdfs", "disk", "kvstore"), or nil.
	Service(name string) any
}

// Loader pulls input data. Plan runs once on the driver; Load runs once per
// split on the node the split was assigned to.
type Loader interface {
	Plan(env *Env) ([]Split, error)
	Load(split Split, ctx Context) error
}

// Mapper transforms one pair at a time. Map may be called concurrently on
// the same node; implementations must be safe for concurrent use or
// stateless.
type Mapper interface {
	Map(kv KV, ctx Context) error
}

// Reducer processes one fully-grouped key. Values appear in arrival order.
type Reducer interface {
	Reduce(key string, values []any, ctx Context) error
}

// PartialReducer folds arriving values into per-key state immediately
// (§2: "processes the available data immediately instead of waiting for
// the whole data collection"). Update must not emit; all output happens in
// Finish after upstreams complete. Init creates the state for a key's
// first value.
type PartialReducer interface {
	// Update folds value into state for key and returns the new state.
	Update(key string, state any, value any) (any, error)
	// Finish is called once per key with the final state and may emit.
	Finish(key string, state any, ctx Context) error
}

// UpdateCoster is an optional PartialReducer extension: UpdateWeight
// reports how many shared-variable writes one Update(value) performs
// (e.g. the element count of a summed vector). The runtime multiplies the
// modeled contention cost (Config.ContentionCost) by this weight; without
// the interface every update counts as one write.
type UpdateCoster interface {
	UpdateWeight(value any) int
}

// Env is the driver-side environment handed to Loader.Plan.
type Env struct {
	NumNodes int
	Services map[string]any
}

// Service returns a named cluster service or nil.
func (e *Env) Service(name string) any { return e.Services[name] }

// Routing selects how an edge moves pairs between nodes.
type Routing int

const (
	// RouteShuffle partitions by key hash across all nodes (default).
	RouteShuffle Routing = iota
	// RouteLocal keeps pairs on the producing node (locality, §3.3). The
	// consumer therefore waits only for its own node's producer to
	// complete when every edge out of that producer is local; emitting to
	// another node over a local edge is an error.
	RouteLocal
	// RouteBroadcast copies every pair to all nodes.
	RouteBroadcast
)

// Edge is a connection between two flowlets in the graph.
type Edge struct {
	From, To    int // flowlet ids
	Routing     Routing
	Partitioner Partitioner
}

// FlowletSpec describes one flowlet in a job graph.
type FlowletSpec struct {
	ID   int
	Name string
	Kind Kind
	// Exactly one of the following is set, matching Kind.
	Loader  Loader
	Mapper  Mapper
	Reducer Reducer
	Partial PartialReducer
	Sink    Sink
	// SerializeUpdates forces partial-reduce updates on this flowlet to be
	// applied by a single goroutine at a time (the serialization fix the
	// paper proposes for hot shared variables, §5.2). Off by default;
	// striped locking is used instead.
	SerializeUpdates bool
}

// Graph is a DAG of flowlets built by the user and submitted as one job.
type Graph struct {
	Name     string
	flowlets []*FlowletSpec
	edges    []Edge
	byName   map[string]int
}

// NewGraph creates an empty job graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, byName: make(map[string]int)}
}

func (g *Graph) add(name string, spec *FlowletSpec) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("core: flowlet name must not be empty")
	}
	if _, dup := g.byName[name]; dup {
		return 0, fmt.Errorf("core: duplicate flowlet name %q", name)
	}
	spec.ID = len(g.flowlets)
	spec.Name = name
	g.flowlets = append(g.flowlets, spec)
	g.byName[name] = spec.ID
	return spec.ID, nil
}

// AddLoader adds a loader flowlet and returns its id.
func (g *Graph) AddLoader(name string, l Loader) (int, error) {
	return g.add(name, &FlowletSpec{Kind: KindLoader, Loader: l})
}

// AddMap adds a map flowlet.
func (g *Graph) AddMap(name string, m Mapper) (int, error) {
	return g.add(name, &FlowletSpec{Kind: KindMap, Mapper: m})
}

// AddReduce adds a reduce flowlet.
func (g *Graph) AddReduce(name string, r Reducer) (int, error) {
	return g.add(name, &FlowletSpec{Kind: KindReduce, Reducer: r})
}

// AddPartialReduce adds a partial-reduce flowlet.
func (g *Graph) AddPartialReduce(name string, p PartialReducer) (int, error) {
	return g.add(name, &FlowletSpec{Kind: KindPartialReduce, Partial: p})
}

// AddSink adds a sink flowlet. Edges into sinks default to local routing:
// each node writes its own portion of the output.
func (g *Graph) AddSink(name string, s Sink) (int, error) {
	return g.add(name, &FlowletSpec{Kind: KindSink, Sink: s})
}

// EdgeOption configures a connection.
type EdgeOption func(*Edge)

// WithRouting overrides the edge routing.
func WithRouting(r Routing) EdgeOption { return func(e *Edge) { e.Routing = r } }

// WithPartitioner overrides the edge partitioner (shuffle routing only).
func WithPartitioner(p Partitioner) EdgeOption { return func(e *Edge) { e.Partitioner = p } }

// Connect adds an edge from flowlet id `from` to flowlet id `to`.
func (g *Graph) Connect(from, to int, opts ...EdgeOption) error {
	if from < 0 || from >= len(g.flowlets) || to < 0 || to >= len(g.flowlets) {
		return fmt.Errorf("core: connect: invalid flowlet id (%d -> %d)", from, to)
	}
	e := Edge{From: from, To: to, Routing: RouteShuffle, Partitioner: HashPartition}
	if g.flowlets[to].Kind == KindSink {
		e.Routing = RouteLocal
	}
	if g.flowlets[to].Kind == KindLoader {
		return fmt.Errorf("core: connect: loader %q cannot have upstream flowlets", g.flowlets[to].Name)
	}
	for _, opt := range opts {
		opt(&e)
	}
	g.edges = append(g.edges, e)
	return nil
}

// Flowlets returns the specs in id order.
func (g *Graph) Flowlets() []*FlowletSpec { return g.flowlets }

// Edges returns all edges.
func (g *Graph) Edges() []Edge { return g.edges }

// FlowletID resolves a flowlet name, returning -1 when unknown.
func (g *Graph) FlowletID(name string) int {
	id, ok := g.byName[name]
	if !ok {
		return -1
	}
	return id
}

// Upstream returns the ids of flowlets with an edge into id.
func (g *Graph) Upstream(id int) []int {
	var ups []int
	for _, e := range g.edges {
		if e.To == id {
			ups = append(ups, e.From)
		}
	}
	return ups
}

// Downstream returns the edges leaving id.
func (g *Graph) Downstream(id int) []Edge {
	var outs []Edge
	for _, e := range g.edges {
		if e.From == id {
			outs = append(outs, e)
		}
	}
	return outs
}

// Validate checks the graph is a well-formed DAG: non-empty, at least one
// loader, acyclic, every flowlet has the member matching its kind, every
// non-loader is reachable, and sinks have no downstream edges.
func (g *Graph) Validate() error {
	if len(g.flowlets) == 0 {
		return fmt.Errorf("core: graph %q has no flowlets", g.Name)
	}
	hasLoader := false
	for _, f := range g.flowlets {
		switch f.Kind {
		case KindLoader:
			hasLoader = true
			if f.Loader == nil {
				return fmt.Errorf("core: loader %q has no Loader", f.Name)
			}
		case KindMap:
			if f.Mapper == nil {
				return fmt.Errorf("core: map %q has no Mapper", f.Name)
			}
		case KindReduce:
			if f.Reducer == nil {
				return fmt.Errorf("core: reduce %q has no Reducer", f.Name)
			}
		case KindPartialReduce:
			if f.Partial == nil {
				return fmt.Errorf("core: partial-reduce %q has no PartialReducer", f.Name)
			}
		case KindSink:
			if f.Sink == nil {
				return fmt.Errorf("core: sink %q has no Sink", f.Name)
			}
			if len(g.Downstream(f.ID)) > 0 {
				return fmt.Errorf("core: sink %q has downstream edges", f.Name)
			}
		default:
			return fmt.Errorf("core: flowlet %q has unknown kind %v", f.Name, f.Kind)
		}
		if f.Kind != KindLoader && len(g.Upstream(f.ID)) == 0 {
			return fmt.Errorf("core: flowlet %q (%v) has no upstream edges", f.Name, f.Kind)
		}
		if f.Kind != KindSink && len(g.Downstream(f.ID)) == 0 {
			return fmt.Errorf("core: flowlet %q (%v) has no downstream edges; connect it to a sink", f.Name, f.Kind)
		}
	}
	if !hasLoader {
		return fmt.Errorf("core: graph %q has no loader", g.Name)
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological order of flowlet ids, or an error if the
// graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.flowlets)
	indeg := make([]int, n)
	for _, e := range g.edges {
		indeg[e.To]++
	}
	var order []int
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, e := range g.edges {
			if e.From == id {
				indeg[e.To]--
				if indeg[e.To] == 0 {
					queue = append(queue, e.To)
				}
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("core: graph %q contains a cycle", g.Name)
	}
	return order, nil
}
