// PageRank: an iterative, multi-phase dataflow job on the public API.
//
// This example shows the two properties the engine was designed around
// (paper §3.1/§3.2): a DAG job with more than two phases, and iteration
// state kept in distributed memory (the kv-store) instead of being
// re-materialized on disk between jobs. The first iteration parses the
// edge list and builds adjacency lists in memory; later iterations replay
// contributions straight from memory.
//
//	iteration 1:  edges -> join(reduce) -> merge(reduce) => maxΔ -> sink
//	iteration i:  memory                -> merge(reduce) => maxΔ -> sink
//
// "=>" is a node-local edge: every rank delta carries the one key
// "delta", so shuffling it would send them all to one node. Each node
// folds its own maximum instead, one pair per node reaches the sink, and
// the driver takes the maximum of those.
//
// Run with:
//
//	go run ./examples/pagerank
package main

import (
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	hamr "github.com/hamr-go/hamr"
)

const (
	damping   = 0.85
	adjTable  = "example.adj"
	rankTable = "example.rank"
)

// edgeJoin is the iteration-1 reduce: collect each page's outgoing links,
// remember them in node-local memory, seed the rank, and send the first
// contributions.
type edgeJoin struct{}

func (edgeJoin) Reduce(page string, values []any, ctx hamr.Context) error {
	st, err := hamr.StoreService(ctx)
	if err != nil {
		return err
	}
	dsts := make([]string, 0, len(values))
	for _, v := range values {
		dsts = append(dsts, v.(string))
	}
	sort.Strings(dsts)
	st.Table(adjTable).LocalPut(ctx.Node(), page, dsts)
	st.Table(rankTable).LocalPut(ctx.Node(), page, 1.0)
	contrib := 1.0 / float64(len(dsts))
	for _, d := range dsts {
		if err := ctx.Emit(hamr.KV{Key: d, Value: contrib}); err != nil {
			return err
		}
	}
	return nil
}

// memLoader replays contributions from the in-memory adjacency (iterations
// two and up) — one split per node, each reading only its own shard.
type memLoader struct{}

func (memLoader) Plan(env *hamr.Env) ([]hamr.Split, error) {
	splits := make([]hamr.Split, env.NumNodes)
	for n := range splits {
		splits[n] = hamr.Split{Payload: n, PreferredNode: n}
	}
	return splits, nil
}

func (memLoader) Load(sp hamr.Split, ctx hamr.Context) error {
	st, err := hamr.StoreService(ctx)
	if err != nil {
		return err
	}
	node := ctx.Node()
	adj, ranks := st.Table(adjTable), st.Table(rankTable)
	for _, page := range adj.LocalKeys(node) {
		v, _ := adj.LocalGet(node, page)
		dsts := v.([]string)
		rank := 1.0
		if rv, ok := ranks.LocalGet(node, page); ok {
			rank = rv.(float64)
		}
		contrib := rank / float64(len(dsts))
		for _, d := range dsts {
			if err := ctx.Emit(hamr.KV{Key: d, Value: contrib}); err != nil {
				return err
			}
		}
	}
	return nil
}

// rankMerge sums a page's incoming contributions and updates its rank in
// memory; it emits the rank delta for convergence tracking.
type rankMerge struct{}

func (rankMerge) Reduce(page string, values []any, ctx hamr.Context) error {
	st, err := hamr.StoreService(ctx)
	if err != nil {
		return err
	}
	sum := 0.0
	for _, v := range values {
		sum += v.(float64)
	}
	next := (1 - damping) + damping*sum
	ranks := st.Table(rankTable)
	old := 1.0
	if ov, ok := ranks.LocalGet(ctx.Node(), page); ok {
		old = ov.(float64)
	}
	ranks.LocalPut(ctx.Node(), page, next)
	delta := next - old
	if delta < 0 {
		delta = -delta
	}
	return ctx.Emit(hamr.KV{Key: "delta", Value: delta})
}

// edgeLoader turns raw "src dst" lines into (src, dst) pairs.
type edgeLoader struct {
	inner hamr.Loader
}

func (l *edgeLoader) Plan(env *hamr.Env) ([]hamr.Split, error) { return l.inner.Plan(env) }

func (l *edgeLoader) Load(sp hamr.Split, ctx hamr.Context) error {
	return l.inner.Load(sp, &edgeCtx{Context: ctx})
}

type edgeCtx struct{ hamr.Context }

func (c *edgeCtx) Emit(kv hamr.KV) error {
	f := strings.Fields(kv.Value.(string))
	if len(f) != 2 {
		return fmt.Errorf("bad edge line %q", kv.Value)
	}
	return c.Context.Emit(hamr.KV{Key: f[0], Value: f[1]})
}

// maxDelta keeps the largest rank change observed on its node.
func maxDelta() hamr.PartialReducer {
	return hamr.Fold(func(key string, state, value any) (any, error) {
		v := value.(float64)
		if state == nil || v > state.(float64) {
			return v, nil
		}
		return state, nil
	}, nil)
}

func buildIteration(first bool, edges hamr.Loader) (*hamr.Graph, *hamr.CollectSink, error) {
	var p *hamr.Pipeline
	if first {
		p = hamr.NewPipeline("pagerank-1", &edgeLoader{inner: edges}).
			Reduce("join", edgeJoin{})
	} else {
		p = hamr.NewPipeline("pagerank-n", memLoader{})
	}
	return p.
		Reduce("merge", rankMerge{}).
		Via(hamr.WithRouting(hamr.RouteLocal)). // fold the maximum where the deltas are
		PartialReduce("maxdelta", maxDelta()).
		Collect()
}

func main() {
	c, err := hamr.NewCluster(hamr.ClusterOptions{NumNodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// A small deterministic graph: a hub (page 0) that everything links
	// to, plus a ring.
	var lines []string
	const pages = 60
	for i := 1; i < pages; i++ {
		lines = append(lines, fmt.Sprintf("%d 0", i))
		lines = append(lines, fmt.Sprintf("%d %d", i, i%pages+1-1))
		lines = append(lines, fmt.Sprintf("0 %d", i))
	}
	edges := &hamr.SliceLoader{Chunks: [][]string{lines[:len(lines)/2], lines[len(lines)/2:]}}

	const iters = 10
	var lastDelta float64
	for it := 0; it < iters; it++ {
		g, sink, err := buildIteration(it == 0, edges)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := c.Run(g); err != nil {
			log.Fatal(err)
		}
		lastDelta = 0
		for _, kv := range sink.Pairs() {
			if d := kv.Value.(float64); d > lastDelta {
				lastDelta = d
			}
		}
		fmt.Printf("iteration %2d: max rank delta %.6f\n", it+1, lastDelta)
		if lastDelta < 1e-4 {
			break
		}
	}

	// Read the final ranks out of distributed memory.
	type pr struct {
		page string
		rank float64
	}
	var ranks []pr
	t := c.Store().Table(rankTable)
	for n := 0; n < c.NumNodes(); n++ {
		for _, k := range t.LocalKeys(n) {
			if v, ok := t.LocalGet(n, k); ok {
				ranks = append(ranks, pr{k, v.(float64)})
			}
		}
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i].rank > ranks[j].rank })
	fmt.Println("top pages:")
	for i := 0; i < 5 && i < len(ranks); i++ {
		fmt.Printf("  page %-4s rank %.4f\n", ranks[i].page, ranks[i].rank)
	}
	if _, err := strconv.Atoi(ranks[0].page); err == nil && ranks[0].page != "0" {
		log.Fatalf("expected the hub (page 0) to rank first, got page %s", ranks[0].page)
	}
}
