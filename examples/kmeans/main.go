// K-Means: the paper's flagship data-locality workload (Algorithm 1),
// iterated to convergence on the public API.
//
// Each iteration ships only *positions* (node, file, offset) and
// similarity scores between flowlets — never the rating vectors — and
// routes back to the node that holds a chosen record to re-read it
// locally (paper §3.3). The iteration loop feeds each round's centroids
// into the next graph.
//
// Run with:
//
//	go run ./examples/kmeans
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	hamr "github.com/hamr-go/hamr"
	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/kernel"
	"github.com/hamr-go/hamr/internal/datagen"
)

// firstLines extracts the given line indices from a text blob.
func firstLines(data []byte, idx []int) []string {
	lines := strings.Split(string(data), "\n")
	out := make([]string, 0, len(idx))
	for _, i := range idx {
		if i < len(lines) {
			out = append(out, lines[i])
		}
	}
	return out
}

func main() {
	c, err := hamr.NewCluster(hamr.ClusterOptions{NumNodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Synthesize PUMA-format movie data with 3 latent taste clusters.
	const k = 3
	data := datagen.Movies(datagen.MoviesConfig{
		Seed: 99, Movies: 1200, Users: 80, Clusters: k,
	})
	files, err := hamr.DistributeLocalText(c, "movies", data, 8)
	if err != nil {
		log.Fatal(err)
	}
	// Deliberately poor seeds — the first k records all come from the same
	// latent cluster (the generator assigns clusters round-robin, so rows
	// 0, 3, 6 share cluster 0), which forces the medoids to move.
	var centroids []hamrapps.Centroid
	for _, line := range firstLines(data, []int{0, 3, 6}) {
		rec, ok := datagen.ParseMovie(line)
		if !ok {
			log.Fatalf("bad seed record %q", line)
		}
		centroids = append(centroids, datagen.NewCentroid(rec.Vector()))
	}

	for iter := 1; iter <= 8; iter++ {
		g, sinks, err := hamrapps.BuildKMeans(hamrapps.KMeansOptions{
			Files:     files,
			Centroids: centroids,
		})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := c.Run(g); err != nil {
			log.Fatal(err)
		}

		// Pull the new centroids out of the job's sink; an empty cluster
		// keeps its centroid.
		next := append([]hamrapps.Centroid(nil), centroids...)
		for _, kv := range sinks.Centroids.Pairs() {
			var idx int
			fmt.Sscanf(kv.Key, "%d", &idx)
			cent, err := kernel.ParseCentroid(kv.Value.(string))
			if err != nil {
				log.Fatal(err)
			}
			if idx >= 0 && idx < k {
				next[idx] = cent
			}
		}
		moved := 0
		for i := range next {
			if kernel.FormatCentroid(next[i]) != kernel.FormatCentroid(centroids[i]) {
				moved++
			}
		}

		// Cluster sizes from the locally-written assignments.
		sizes := map[string]int{}
		for _, kv := range sinks.Assignments.Pairs() {
			sizes[kv.Key]++
		}
		var keys []string
		for ck := range sizes {
			keys = append(keys, ck)
		}
		sort.Strings(keys)
		fmt.Printf("iteration %d: %d centroid(s) moved, cluster sizes:", iter, moved)
		for _, ck := range keys {
			fmt.Printf(" c%s=%d", ck, sizes[ck])
		}
		fmt.Println()

		centroids = next
		if moved == 0 {
			fmt.Println("converged: medoid centroids are stable")
			break
		}
	}
}
