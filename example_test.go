package hamr_test

import (
	"fmt"
	"log"
	"sort"
	"strings"

	hamr "github.com/hamr-go/hamr"
)

type exampleSplit struct{}

func (exampleSplit) Map(kv hamr.KV, ctx hamr.Context) error {
	for _, w := range strings.Fields(kv.Value.(string)) {
		if err := ctx.Emit(hamr.KV{Key: w, Value: int64(1)}); err != nil {
			return err
		}
	}
	return nil
}

// ExampleNewPipeline runs the canonical WordCount: loader, map, partial
// reduce, collected output.
func ExampleNewPipeline() {
	c, err := hamr.NewCluster(hamr.ClusterOptions{NumNodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	loader := &hamr.SliceLoader{Chunks: [][]string{{"go gopher go"}, {"gopher"}}}
	g, sink, err := hamr.NewPipeline("wordcount", loader).
		Via(hamr.WithRouting(hamr.RouteLocal)).
		Map("split", exampleSplit{}).
		PartialReduce("count", hamr.SumInt64()).
		Collect()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.Run(g); err != nil {
		log.Fatal(err)
	}
	for _, kv := range sink.Sorted() {
		fmt.Printf("%s=%d\n", kv.Key, kv.Value)
	}
	// Output:
	// go=2
	// gopher=2
}

// ExampleNewGraph builds a DAG by hand: one loader feeding two branches
// (the data-reuse pattern a single MapReduce job cannot express).
func ExampleNewGraph() {
	c, err := hamr.NewCluster(hamr.ClusterOptions{NumNodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	g := hamr.NewGraph("fanout")
	sink := hamr.NewCollectSink()
	ld, _ := g.AddLoader("load", &hamr.SliceLoader{Chunks: [][]string{{"x y", "z"}}})
	words, _ := g.AddMap("words", exampleSplit{})
	lines, _ := g.AddMap("lines", hamr.MapFunc(func(kv hamr.KV, ctx hamr.Context) error {
		return ctx.Emit(hamr.KV{Key: "__lines__", Value: int64(1)})
	}))
	agg, _ := g.AddPartialReduce("count", hamr.SumInt64())
	sk, _ := g.AddSink("out", sink)
	g.Connect(ld, words)
	g.Connect(ld, lines)
	g.Connect(words, agg)
	g.Connect(lines, agg)
	g.Connect(agg, sk)

	if _, err := c.Run(g); err != nil {
		log.Fatal(err)
	}
	pairs := sink.Sorted()
	for _, kv := range pairs {
		fmt.Printf("%s=%d\n", kv.Key, kv.Value)
	}
	// Output:
	// __lines__=2
	// x=1
	// y=1
	// z=1
}

// ExampleFold builds a custom partial reducer (here: max) from plain
// functions.
func ExampleFold() {
	c, err := hamr.NewCluster(hamr.ClusterOptions{NumNodes: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	max := hamr.Fold(func(key string, state, value any) (any, error) {
		v := value.(int64)
		if state == nil || v > state.(int64) {
			return v, nil
		}
		return state, nil
	}, nil)

	loader := &hamr.SliceLoader{Chunks: [][]string{{"7", "3", "9", "4"}}}
	g, sink, err := hamr.NewPipeline("max", loader).
		Map("parse", hamr.MapFunc(func(kv hamr.KV, ctx hamr.Context) error {
			var n int64
			fmt.Sscanf(kv.Value.(string), "%d", &n)
			return ctx.Emit(hamr.KV{Key: "max", Value: n})
		})).
		PartialReduce("fold", max).
		Collect()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := c.Run(g); err != nil {
		log.Fatal(err)
	}
	pairs := sink.Pairs()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	fmt.Println(pairs[0].Key, pairs[0].Value)
	// Output:
	// max 9
}
