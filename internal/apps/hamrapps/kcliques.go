package hamrapps

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/hamr-go/hamr/internal/apps/kernel"
	"github.com/hamr-go/hamr/internal/core"
)

// K-Cliques, Algorithm 3: find all fully connected vertex sets of size K.
// The graph is built once into distributed memory (the kv-store — "this
// kind of distributed memory will be built into HAMR as a component called
// key-value store", §5.2) and candidate cliques stream through a chain of
// verify flowlets, one per clique size:
//
//	Loader -> GraphBuilder(reduce)  stores adj(v) at hash(v)'s node,
//	                                emits one token per vertex
//	-> CliqueSeeder(partial reduce) fires only after the whole graph is
//	                                resident (the Alg. 3 "when all data is
//	                                ready in memory" barrier), emits
//	                                2-cliques keyed by their larger vertex
//	-> Verify2 .. VerifyK (maps)    each stage runs where the candidate's
//	                                newest vertex's adjacency lives,
//	                                validates, and extends by one vertex
//	-> sink                         valid K-cliques as "v1,v2,...,vK"
//
// Candidates are generated in strictly ascending vertex order, so every
// clique is found exactly once.

const kcAdjTable = "kcliques.adj"

// neighborSet is the stored adjacency value.
type neighborSet map[int64]bool

// SizeBytes implements core.Sizer.
func (s neighborSet) SizeBytes() int64 { return int64(len(s))*16 + 48 }

// parseUndirected turns an undirected edge line (kernel.UndirectedEdge)
// into both directions, so every vertex's full neighborhood reaches its
// builder.
func parseUndirected(line string, ctx core.Context) error {
	e, ok, err := kernel.UndirectedEdge(line)
	if !ok {
		return err
	}
	if err := ctx.Emit(core.KV{Key: e.U, Value: e.VID}); err != nil {
		return err
	}
	return ctx.Emit(core.KV{Key: e.V, Value: e.UID})
}

// GraphBuilder stores each vertex's neighbor set in the local shard of the
// kv-store and emits one token so the seeder can fire after the barrier.
type GraphBuilder struct{}

// Reduce implements core.Reducer.
func (GraphBuilder) Reduce(key string, values []any, ctx core.Context) error {
	st, err := Store(ctx)
	if err != nil {
		return err
	}
	set := make(neighborSet, len(values))
	for _, v := range values {
		set[v.(int64)] = true
	}
	st.Table(kcAdjTable).LocalPut(ctx.Node(), key, set)
	return ctx.Emit(core.KV{Key: key, Value: int64(len(set))})
}

// CliqueSeeder generates 2-cliques once every GraphBuilder has completed
// (partial-reduce Finish runs only after all upstreams complete on all
// nodes — the Alg. 3 TwoCliquesGenerator barrier): each vertex u is the
// 1-clique "u", extended by every neighbor above it into verify2, which
// emits it for K == 2 and extends it otherwise.
type CliqueSeeder struct{ K int }

// Update implements core.PartialReducer (the token's value is unused).
func (CliqueSeeder) Update(key string, state, value any) (any, error) { return value, nil }

// Finish implements core.PartialReducer.
func (cs CliqueSeeder) Finish(key string, state any, ctx core.Context) error {
	adj, err := localAdj(ctx, key)
	if err == nil && adj == nil {
		err = fmt.Errorf("hamrapps: adjacency for %s missing on node %d", key, ctx.Node())
	}
	if err != nil {
		return err
	}
	return extend(ctx, key, adj, 1, cs.K)
}

// CliqueVerify is verify stage i (2 <= i <= K): it receives candidates of
// size i keyed by their newest vertex, so the stage runs on the node
// holding that vertex's adjacency. A validated K-clique goes to the sink;
// smaller validated cliques are extended by one vertex and sent to the
// next stage.
type CliqueVerify struct {
	Size int // i — the size of the candidate arriving here
	K    int
}

// Map implements core.Mapper.
func (cv CliqueVerify) Map(kv core.KV, ctx core.Context) error {
	clique := kv.Value.(string)
	if n := strings.Count(clique, ",") + 1; n != cv.Size {
		return fmt.Errorf("hamrapps: stage %d got %d-clique %q", cv.Size, n, clique)
	}
	// A newest vertex with no adjacency here (nil) has no clique.
	adj, err := localAdj(ctx, kv.Key)
	if err != nil {
		return err
	}
	return extend(ctx, clique, adj, cv.Size, cv.K)
}

// localAdj is a vertex's neighbor set from this node's shard of the
// kv-store, nil when the shard has none.
func localAdj(ctx core.Context, vertex string) (neighborSet, error) {
	st, err := Store(ctx)
	if err != nil {
		return nil, err
	}
	adj, _ := st.Table(kcAdjTable).LocalGet(ctx.Node(), vertex)
	set, _ := adj.(neighborSet)
	return set, nil
}

// extend runs kernel.Extend on a clique of the given size, whose newest
// vertex's neighbors are adj, and routes what it emits: a K-clique to the
// sink, a longer candidate to the next verify stage, keyed by its newest
// vertex.
func extend(ctx core.Context, clique string, adj neighborSet, size, k int) error {
	if size == k {
		return kernel.Extend(clique, adj, k, func(kv core.KV) error { return ctx.EmitTo("out", kv) })
	}
	stage := "verify" + strconv.Itoa(size+1)
	return kernel.Extend(clique, adj, k, func(kv core.KV) error {
		next := kv.Key
		return ctx.EmitTo(stage, core.KV{Key: next[strings.LastIndexByte(next, ',')+1:], Value: next})
	})
}

// BuildKCliques constructs the Algorithm 3 graph for clique size K >= 2.
// The sink receives one ("v1,...,vK", 1) pair per clique.
func BuildKCliques(k int, edgeLoader core.Loader) (*core.Graph, *core.CollectSink, error) {
	if k < 2 {
		return nil, nil, fmt.Errorf("hamrapps: K must be >= 2, got %d", k)
	}
	p := core.NewPipeline(fmt.Sprintf("%d-cliques", k), "load", &parseLoader{edgeLoader, parseUndirected}).
		Reduce("graphbuilder", GraphBuilder{}).
		PartialReduce("seeder", CliqueSeeder{K: k})
	for size := 2; size <= k; size++ {
		p.Map(fmt.Sprintf("verify%d", size), CliqueVerify{Size: size, K: k})
	}
	// The final verify stage emits the K-cliques to the sink ("out").
	return p.Via(core.WithRouting(core.RouteLocal)).Collect()
}
