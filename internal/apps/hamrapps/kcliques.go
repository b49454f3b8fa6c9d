package hamrapps

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

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

// CliqueLoader parses undirected edge lines "u v" and emits both
// directions so every vertex's full neighborhood reaches its builder.
type CliqueLoader struct {
	Inner core.Loader
}

// Plan implements core.Loader.
func (l *CliqueLoader) Plan(env *core.Env) ([]core.Split, error) { return l.Inner.Plan(env) }

// Load implements core.Loader.
func (l *CliqueLoader) Load(sp core.Split, ctx core.Context) error {
	return l.Inner.Load(sp, &cliqueParseCtx{Context: ctx})
}

type cliqueParseCtx struct {
	core.Context
}

// Emit implements core.Context.
func (c *cliqueParseCtx) Emit(kv core.KV) error {
	line := strings.TrimSpace(kv.Value.(string))
	if line == "" {
		return nil
	}
	f := strings.Fields(line)
	if len(f) != 2 {
		return fmt.Errorf("hamrapps: bad edge line %q", line)
	}
	u, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return err
	}
	if u == v {
		return nil
	}
	if err := c.Context.Emit(core.KV{Key: f[0], Value: v}); err != nil {
		return err
	}
	return c.Context.Emit(core.KV{Key: f[1], Value: u})
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
// nodes — the Alg. 3 TwoCliquesGenerator barrier). Every candidate goes
// to verify2, which emits it for K == 2 and extends it otherwise.
type CliqueSeeder struct{}

// Update implements core.PartialReducer (the token's value is unused).
func (CliqueSeeder) Update(key string, state, value any) (any, error) { return value, nil }

// Finish implements core.PartialReducer: emit "u,v" candidates keyed by v
// for every neighbor v > u.
func (CliqueSeeder) Finish(key string, state any, ctx core.Context) error {
	st, err := Store(ctx)
	if err != nil {
		return err
	}
	adjAny, ok := st.Table(kcAdjTable).LocalGet(ctx.Node(), key)
	if !ok {
		return fmt.Errorf("hamrapps: adjacency for %s missing on node %d", key, ctx.Node())
	}
	u, err := strconv.ParseInt(key, 10, 64)
	if err != nil {
		return err
	}
	adj := adjAny.(neighborSet)
	neighbors := make([]int64, 0, len(adj))
	for v := range adj {
		if v > u {
			neighbors = append(neighbors, v)
		}
	}
	sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
	for _, v := range neighbors {
		cand := fmt.Sprintf("%d,%d", u, v)
		if err := ctx.EmitTo("verify2", core.KV{Key: strconv.FormatInt(v, 10), Value: cand}); err != nil {
			return err
		}
	}
	return nil
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
	st, err := Store(ctx)
	if err != nil {
		return err
	}
	newest, err := strconv.ParseInt(kv.Key, 10, 64)
	if err != nil {
		return err
	}
	members := strings.Split(kv.Value.(string), ",")
	if len(members) != cv.Size {
		return fmt.Errorf("hamrapps: stage %d got %d-clique %q", cv.Size, len(members), kv.Value)
	}
	adjAny, ok := st.Table(kcAdjTable).LocalGet(ctx.Node(), kv.Key)
	if !ok {
		return nil // newest vertex has no adjacency here: not a clique
	}
	adj := adjAny.(neighborSet)
	// Validate: every earlier member must neighbor the newest vertex. The
	// second-newest is guaranteed (the candidate was extended through its
	// adjacency), but checking all is cheap and robust.
	for _, m := range members[:len(members)-1] {
		mv, err := strconv.ParseInt(m, 10, 64)
		if err != nil {
			return err
		}
		if !adj[mv] {
			return nil
		}
	}
	if cv.Size == cv.K {
		return ctx.EmitTo("out", core.KV{Key: kv.Value.(string), Value: int64(1)})
	}
	// Extend by each neighbor greater than the newest vertex.
	next := make([]int64, 0, len(adj))
	for v := range adj {
		if v > newest {
			next = append(next, v)
		}
	}
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	stage := fmt.Sprintf("verify%d", cv.Size+1)
	for _, v := range next {
		cand := kv.Value.(string) + "," + strconv.FormatInt(v, 10)
		if err := ctx.EmitTo(stage, core.KV{Key: strconv.FormatInt(v, 10), Value: cand}); err != nil {
			return err
		}
	}
	return nil
}

// BuildKCliques constructs the Algorithm 3 graph for clique size K >= 2.
// The sink receives one ("v1,...,vK", 1) pair per clique.
func BuildKCliques(k int, edgeLoader core.Loader) (*core.Graph, *core.CollectSink, error) {
	if k < 2 {
		return nil, nil, fmt.Errorf("hamrapps: K must be >= 2, got %d", k)
	}
	p := core.NewPipeline(fmt.Sprintf("%d-cliques", k), "load", &CliqueLoader{Inner: edgeLoader}).
		Reduce("graphbuilder", GraphBuilder{}).
		PartialReduce("seeder", CliqueSeeder{})
	for size := 2; size <= k; size++ {
		p.Map(fmt.Sprintf("verify%d", size), CliqueVerify{Size: size, K: k})
	}
	// The final verify stage emits the K-cliques to the sink ("out").
	return p.Via(core.WithRouting(core.RouteLocal)).Collect()
}
