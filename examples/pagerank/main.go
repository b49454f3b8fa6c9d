// PageRank: an iterative, multi-phase dataflow job.
//
// This example drives the benchmark's own Algorithm 2 flowlets
// (internal/apps/hamrapps) and shows the two properties the engine was
// designed around (paper §3.1/§3.2): a DAG job with more than two phases,
// and iteration state kept in distributed memory (the kv-store) instead of
// being re-materialized on disk between jobs. The first iteration parses
// the edge list and builds adjacency lists in memory; later iterations
// replay contributions straight from memory:
//
//	iteration 1:  edges -> hashjoin(reduce) -> merge(reduce) => cont => maxΔ -> sink
//	iteration i:  memory                    -> merge(reduce) => cont => maxΔ -> sink
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

	hamr "github.com/hamr-go/hamr"
	"github.com/hamr-go/hamr/internal/apps/hamrapps"
)

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

	res, err := hamrapps.RunPageRank(c, edges, 1e-4, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d iterations, last max rank delta %.6f\n", res.Iterations, res.MaxDelta)

	ranked := make([]string, 0, len(res.Ranks))
	for page := range res.Ranks {
		ranked = append(ranked, page)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if a, b := res.Ranks[ranked[i]], res.Ranks[ranked[j]]; a != b {
			return a > b
		}
		return ranked[i] < ranked[j]
	})
	fmt.Println("top pages:")
	for _, page := range ranked[:min(5, len(ranked))] {
		fmt.Printf("  page %-4s rank %.4f\n", page, res.Ranks[page])
	}
	if ranked[0] != "0" {
		log.Fatalf("expected the hub (page 0) to rank first, got page %s", ranked[0])
	}
}
