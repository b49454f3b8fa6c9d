// Quickstart: WordCount on the public HAMR API.
//
// This is the canonical first HAMR program: a loader feeding lines, a
// FlatMap splitting them into (word, 1) pairs, a Filter dropping noise
// words, and a partial reduce that counts occurrences as soon as they
// arrive (no barrier before aggregation — the dataflow property the
// engine is built around). Collect wires the sink and returns the graph,
// and RunContext executes it; no manual graph assembly is needed.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	hamr "github.com/hamr-go/hamr"
)

// splitLine turns one text line into (word, 1) pairs.
func splitLine(kv hamr.KV, emit func(hamr.KV) error) error {
	for _, w := range strings.Fields(kv.Value.(string)) {
		w = strings.ToLower(strings.Trim(w, ".,;:!?\"'()"))
		if w == "" {
			continue
		}
		if err := emit(hamr.KV{Key: w, Value: int64(1)}); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	// A 4-node in-process cluster. Real deployments of the original system
	// spanned physical machines; the Go engine simulates the cluster in
	// one process while keeping all the distributed machinery (per-node
	// runtimes, shuffle, flow control) live.
	c, err := hamr.NewCluster(hamr.ClusterOptions{NumNodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	corpus := []string{
		"the quick brown fox jumps over the lazy dog",
		"the dog barks and the fox runs",
		"a lazy afternoon for a quick brown fox",
		"dataflow engines keep the data moving and the disks idle",
	}
	// Two chunks -> two loader splits -> parallel loading.
	loader := &hamr.SliceLoader{Chunks: [][]string{corpus[:2], corpus[2:]}}

	// Stopwords to drop before the shuffle — Filter runs on the mapping
	// node, so filtered pairs never cross the network.
	stop := map[string]bool{"the": true, "a": true, "and": true, "for": true}

	g, sink, err := hamr.NewPipeline("wordcount", loader).
		Via(hamr.WithRouting(hamr.RouteLocal)). // split where the data loads
		FlatMap("split", splitLine).
		Via(hamr.WithRouting(hamr.RouteLocal)).
		Filter("drop-stopwords", func(kv hamr.KV) bool { return !stop[kv.Key] }).
		PartialReduce("count", hamr.SumInt64()).
		Collect()
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.RunContext(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}

	counts := sink.Pairs()
	sort.Slice(counts, func(i, j int) bool {
		a, b := counts[i].Value.(int64), counts[j].Value.(int64)
		if a != b {
			return a > b
		}
		return counts[i].Key < counts[j].Key
	})
	fmt.Printf("word counts (job %d ran in %v):\n", res.Job, res.Duration.Round(0))
	for _, kv := range counts {
		if kv.Value.(int64) < 2 {
			continue
		}
		fmt.Printf("  %-10s %d\n", kv.Key, kv.Value)
	}
	fmt.Printf("(%d distinct words total)\n", len(counts))
}
