package hamrapps

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
)

// PageRank, Algorithm 2 — the multi-phase, in-memory iteration benchmark
// (§3.1/§3.2). Hadoop needs two chained jobs per iteration with HDFS
// materialization between them; HAMR keeps the adjacency lists and ranks
// distributed in memory (the kv-store) and runs each iteration as one job:
//
//	iteration 1:  EdgeFileLoader -> HashJoinRed(reduce) -> MergeRed(reduce) => ContMap => maxΔ -> sink
//	iteration i:  EdgeLoader (from memory)              -> MergeRed(reduce) => ContMap => maxΔ -> sink
//
// "=>" is a node-local edge. The convergence check is a two-level
// maximum: every delta carries the one constant key "delta", so over a
// shuffle edge it would be an all-to-one transfer and one serialised
// partial-reduce stripe on one node while the others idle. Instead
// ContMap and maxΔ run on the node whose MergeRed produced the delta,
// each node folds its own maximum, and one pair per node reaches the
// sink for the driver to take the maximum of.
//
// The damping follows the common formulation rank = 0.15 + 0.85·Σ
// contributions; pages keep rank 1 until they receive contributions.

const (
	prAdjTable  = "pagerank.adj"
	prRankTable = "pagerank.rank"
	// PRDamping is the damping factor.
	PRDamping = 0.85
)

// adjList is the stored adjacency value.
type adjList []int64

// SizeBytes implements core.Sizer.
func (a adjList) SizeBytes() int64 { return int64(len(a))*8 + 24 }

// EdgeFileLoader parses "src dst" lines into (src, dst) pairs.
type EdgeFileLoader struct {
	Inner core.Loader // supplies raw text lines
}

// Plan implements core.Loader.
func (l *EdgeFileLoader) Plan(env *core.Env) ([]core.Split, error) { return l.Inner.Plan(env) }

// Load implements core.Loader.
func (l *EdgeFileLoader) Load(sp core.Split, ctx core.Context) error {
	return l.Inner.Load(sp, &edgeParseCtx{Context: ctx})
}

// edgeParseCtx rewrites the inner loader's (“”, line) emissions into
// (src, dst) pairs before they enter the graph.
type edgeParseCtx struct {
	core.Context
}

// Emit implements core.Context.
func (c *edgeParseCtx) Emit(kv core.KV) error {
	line := strings.TrimSpace(kv.Value.(string))
	if line == "" {
		return nil
	}
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return fmt.Errorf("hamrapps: bad edge line %q", line)
	}
	dst, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return err
	}
	return c.Context.Emit(core.KV{Key: fields[0], Value: dst})
}

// HashJoinRed (iteration 1) collects each page's destination list, stores
// it in node-local memory, seeds the page's rank, and sends the first
// round of contributions.
type HashJoinRed struct{}

// Reduce implements core.Reducer.
func (HashJoinRed) Reduce(key string, values []any, ctx core.Context) error {
	st, err := Store(ctx)
	if err != nil {
		return err
	}
	dsts := make(adjList, 0, len(values))
	for _, v := range values {
		dsts = append(dsts, v.(int64))
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	st.Table(prAdjTable).LocalPut(ctx.Node(), key, dsts)
	st.Table(prRankTable).LocalPut(ctx.Node(), key, 1.0)
	contrib := 1.0 / float64(len(dsts))
	for _, d := range dsts {
		if err := ctx.Emit(core.KV{Key: strconv.FormatInt(d, 10), Value: contrib}); err != nil {
			return err
		}
	}
	return nil
}

// EdgeLoader (iterations >= 2) replays contributions from the in-memory
// adjacency, one split per node.
type EdgeLoader struct{}

// Plan implements core.Loader.
func (EdgeLoader) Plan(env *core.Env) ([]core.Split, error) {
	splits := make([]core.Split, env.NumNodes)
	for n := range splits {
		splits[n] = core.Split{Payload: n, PreferredNode: n}
	}
	return splits, nil
}

// Load implements core.Loader.
func (EdgeLoader) Load(sp core.Split, ctx core.Context) error {
	node := sp.Payload.(int)
	if node != ctx.Node() {
		return fmt.Errorf("hamrapps: EdgeLoader split for node %d ran on node %d", node, ctx.Node())
	}
	st, err := Store(ctx)
	if err != nil {
		return err
	}
	adj := st.Table(prAdjTable)
	ranks := st.Table(prRankTable)
	keys := adj.LocalKeys(node)
	sort.Strings(keys)
	for _, src := range keys {
		v, _ := adj.LocalGet(node, src)
		dsts := v.(adjList)
		rank := 1.0
		if rv, ok := ranks.LocalGet(node, src); ok {
			rank = rv.(float64)
		}
		contrib := rank / float64(len(dsts))
		for _, d := range dsts {
			if err := ctx.Emit(core.KV{Key: strconv.FormatInt(d, 10), Value: contrib}); err != nil {
				return err
			}
		}
	}
	return nil
}

// MergeRed sums a page's incoming contributions, updates its rank in
// memory and emits the delta for convergence checking.
type MergeRed struct{}

// Reduce implements core.Reducer.
func (MergeRed) Reduce(key string, values []any, ctx core.Context) error {
	st, err := Store(ctx)
	if err != nil {
		return err
	}
	sum := 0.0
	for _, v := range values {
		sum += v.(float64)
	}
	newRank := (1 - PRDamping) + PRDamping*sum
	ranks := st.Table(prRankTable)
	old := 1.0
	if ov, ok := ranks.LocalGet(ctx.Node(), key); ok {
		old = ov.(float64)
	}
	ranks.LocalPut(ctx.Node(), key, newRank)
	delta := newRank - old
	if delta < 0 {
		delta = -delta
	}
	return ctx.Emit(core.KV{Key: "delta", Value: delta})
}

// ContMap forwards deltas to the node's max aggregation (Alg. 2 step 10).
type ContMap struct{}

// Map implements core.Mapper.
func (ContMap) Map(kv core.KV, ctx core.Context) error { return ctx.Emit(kv) }

// MaxFloat is a partial reduce keeping the maximum float64.
type MaxFloat struct{}

// Update implements core.PartialReducer.
func (MaxFloat) Update(key string, state, value any) (any, error) {
	v := value.(float64)
	if state == nil || v > state.(float64) {
		return v, nil
	}
	return state, nil
}

// Finish implements core.PartialReducer.
func (MaxFloat) Finish(key string, state any, ctx core.Context) error {
	return ctx.Emit(core.KV{Key: key, Value: state.(float64)})
}

// BuildPageRankIteration constructs the graph for one iteration. first
// selects the Algorithm 2 branch (edge file load + hash join vs in-memory
// edge replay). The sink receives one ("delta", node-local max) per node
// that reduced a page; the iteration's max delta is their maximum.
func BuildPageRankIteration(first bool, edgeLoader core.Loader) (*core.Graph, *core.CollectSink, error) {
	var p *core.Pipeline
	if first {
		p = core.NewPipeline("pagerank-iter", "edges", &EdgeFileLoader{Inner: edgeLoader}).
			Reduce("hashjoin", HashJoinRed{})
	} else {
		p = core.NewPipeline("pagerank-iter", "edges", EdgeLoader{})
	}
	return p.Reduce("merge", MergeRed{}).
		Via(core.WithRouting(core.RouteLocal)).
		Map("cont", ContMap{}).
		Via(core.WithRouting(core.RouteLocal)).
		PartialReduce("maxdelta", MaxFloat{}).
		Collect()
}

// PageRankResult holds a finished run.
type PageRankResult struct {
	Iterations int
	MaxDelta   float64
	Ranks      map[string]float64
	// Last is the final iteration's job.
	Last *core.JobResult
}

// RunPageRank executes Algorithm 2's driver loop on a cluster: iterate
// until the max rank delta drops below epsilon or maxIters is reached,
// then collect the final ranks from the distributed memory.
func RunPageRank(c *cluster.Cluster, edgeLoader core.Loader, epsilon float64, maxIters int) (*PageRankResult, error) {
	if maxIters <= 0 {
		maxIters = 10
	}
	st := c.Store()
	st.Table(prAdjTable).Clear()
	st.Table(prRankTable).Clear()
	res := &PageRankResult{}
	for it := 0; it < maxIters; it++ {
		g, sink, err := BuildPageRankIteration(it == 0, edgeLoader)
		if err != nil {
			return nil, err
		}
		if res.Last, err = c.Run(g); err != nil {
			return nil, fmt.Errorf("hamrapps: pagerank iteration %d: %w", it+1, err)
		}
		res.Iterations = it + 1
		res.MaxDelta = 0
		for _, kv := range sink.Pairs() {
			if d := kv.Value.(float64); d > res.MaxDelta {
				res.MaxDelta = d
			}
		}
		if res.MaxDelta < epsilon {
			break
		}
	}
	// Collect final ranks from every node's shard.
	res.Ranks = make(map[string]float64)
	ranks := st.Table(prRankTable)
	for n := 0; n < c.NumNodes(); n++ {
		for _, k := range ranks.LocalKeys(n) {
			if v, ok := ranks.LocalGet(n, k); ok {
				res.Ranks[k] = v.(float64)
			}
		}
	}
	return res, nil
}
