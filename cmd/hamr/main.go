// Command hamr runs one of the built-in flowlet applications on a local
// simulated cluster, reading real files from disk. It is the quickest way
// to watch the engine work end to end:
//
//	hamr -app wordcount -in corpus.txt -nodes 4 -top 10
//	hamr -app histogram-movies -in movies.txt
//	hamr -app histogram-ratings -in movies.txt -combiner
//	hamr -app pagerank -in edges.txt -iters 5
//	hamr -app kcliques -in graph.txt -k 4
//	hamr -app naivebayes -in docs.txt
//
// Use cmd/datagen to produce inputs in the right formats.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/hamr-go/hamr/internal/apps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
)

func main() {
	var (
		app      = flag.String("app", "wordcount", "application: "+strings.Join(appNames(), ", "))
		in       = flag.String("in", "", "input file (required)")
		nodes    = flag.Int("nodes", 4, "simulated cluster size")
		workers  = flag.Int("workers", 4, "workers per node")
		combiner = flag.Bool("combiner", false, "enable the HAMR combiner (wordcount, histograms)")
		iters    = flag.Int("iters", 3, "pagerank iterations")
		k        = flag.Int("k", 3, "clique size / cluster count")
		top      = flag.Int("top", 20, "print at most this many result rows (0 = all)")
		stats    = flag.Bool("stats", false, "print engine metrics after the run")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "hamr: -in is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		fatal(err)
	}

	c, err := cluster.New(cluster.Options{
		NumNodes: *nodes,
		Core:     core.Config{Workers: *workers},
	})
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	start := time.Now()
	// Every application is a row of the workload table, run the way the
	// harness runs it; what prints is the row's canonical answer.
	w := apps.Lookup(*app)
	if w == nil {
		fmt.Fprintf(os.Stderr, "hamr: unknown -app %q\n", *app)
		os.Exit(2)
	}
	env, err := w.HAMREnv(c, data, w.NewRun(
		apps.Scale{KClusters: *k, KCliquesK: *k, PageRankIters: *iters}, data, apps.Variant{Combiner: *combiner}))
	if err != nil {
		fatal(err)
	}
	res, collect, err := w.RunHAMR(env)
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "--- flowlet timeline (job %d, %v) ---\n%s", res.Job, res.Duration.Round(time.Millisecond), res.Timeline())
		fmt.Fprintf(os.Stderr, "--- metrics ---\n%s", res.Metrics)
	}
	out, err := collect()
	if err != nil {
		fatal(err)
	}
	keys := make([]string, 0, len(out))
	for key := range out {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	n := len(keys)
	if *top > 0 && n > *top {
		n = *top
	}
	for _, key := range keys[:n] {
		fmt.Printf("%s\t%s\n", key, out[key])
	}
	if len(keys) > n {
		fmt.Printf("... (%d more rows)\n", len(keys)-n)
	}
	fmt.Fprintf(os.Stderr, "hamr: %s finished in %v on %d nodes\n", *app, time.Since(start).Round(time.Millisecond), *nodes)
}

// appNames lists what -app accepts: the workload table's rows.
func appNames() []string {
	var names []string
	for _, w := range apps.Table {
		names = append(names, w.App)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hamr:", err)
	os.Exit(1)
}
