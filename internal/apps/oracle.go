package apps

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/hamr-go/hamr/internal/datagen"
)

// The oracle: what a row's answer is, how an engine's answer is held to the
// reference's, and the eight references themselves.

// Output is a row's canonical answer, the thing the reference and both
// engines must agree on key by key.
type Output map[string]string

// The two sides Check names.
const (
	SideHAMR = "HAMR"
	SideMR   = "MapReduce"
)

// Check holds one side's answer to the reference's. The error names the
// row, the side and the first key, in key order, on which they differ.
func (w *Workload) Check(ref Output, side string, got Output) error {
	if len(ref) == 0 {
		return fmt.Errorf("apps: %s: the reference's answer is empty: nothing to hold %s to", w.Name, side)
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		if side != SideHAMR && w.HAMROnly != "" && strings.HasPrefix(k, w.HAMROnly) {
			continue
		}
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := ref[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, inRef := ref[k]
		have, inGot := got[k]
		switch {
		case !inGot:
			return fmt.Errorf("apps: %s: %s has no %q (reference: %q)", w.Name, side, k, want)
		case !inRef:
			return fmt.Errorf("apps: %s: %s has %q = %q, the reference has no such key", w.Name, side, k, have)
		case want != have && (w.Equal == nil || !w.Equal(want, have)):
			return fmt.Errorf("apps: %s: %s has %q = %q, reference %q", w.Name, side, k, have, want)
		}
	}
	return nil
}

// assignKey prefixes a movie's key in the answers that assign movies to
// clusters.
const assignKey = "assign|"

// assignment turns one output line of either engine into (movie, cluster):
// the flowlet versions write "cluster<TAB>id", the PUMA Classification
// job "cluster<TAB>id:ratings".
func assignment(cluster, rec string) (string, string) {
	id, _, _ := strings.Cut(rec, ":")
	return assignKey + id, cluster
}

// add gives a key its value; a key has one writer, so a second is an error.
func (o Output) add(k, v string) error {
	if old, dup := o[k]; dup {
		return fmt.Errorf("apps: key %q output twice (%q, %q)", k, old, v)
	}
	o[k] = v
	return nil
}

// addLines adds "key<TAB>value" lines, through line when it is not nil.
func (o Output) addLines(data []byte, line func(k, v string) (string, string)) error {
	for _, l := range strings.Split(string(data), "\n") {
		if l == "" {
			continue
		}
		k, v, ok := strings.Cut(l, "\t")
		if !ok {
			return fmt.Errorf("apps: output line %q has no tab", l)
		}
		if line != nil {
			k, v = line(k, v)
		}
		if err := o.add(k, v); err != nil {
			return err
		}
	}
	return nil
}

// rankOutput is PageRank's answer: every page's rank, and how many
// iterations produced it.
func rankOutput(iterations int, ranks map[string]float64) Output {
	out := Output{"iterations": strconv.Itoa(iterations)}
	for page, rank := range ranks {
		out[page] = strconv.FormatFloat(rank, 'g', -1, 64)
	}
	return out
}

// closeFloats is PageRank's equality: the engines add a page's
// contributions in different orders, so ranks agree to 1e-9, not to the bit.
func closeFloats(want, got string) bool {
	x, err := strconv.ParseFloat(want, 64)
	y, err2 := strconv.ParseFloat(got, 64)
	return err == nil && err2 == nil && math.Abs(x-y) <= 1e-9*math.Max(1, math.Abs(x))
}

// The eight references: each reads the input, maps, groups and reduces on
// one thread with no engine underneath, and is short enough to be checked
// by eye. They share datagen's record parsers and cosine similarity with
// the engines' versions, and nothing of the engines' own code: not the
// record kernels both engines run (package kernel), nor anything that
// moves data. CI holds this file to importing no package under apps/.

func lines(input []byte) []string { return strings.Split(string(input), "\n") }

func counts(n map[string]int64) Output {
	out := make(Output, len(n))
	for k, v := range n {
		out[k] = strconv.FormatInt(v, 10)
	}
	return out
}

func refWordCount(input []byte, _ Run) Output {
	n := map[string]int64{}
	for _, w := range strings.Fields(string(input)) {
		n[w]++
	}
	return counts(n)
}

// refHistogramMovies counts movies by average rating, rounded to half stars
// within 1..5.
func refHistogramMovies(input []byte, _ Run) Output {
	n := map[string]int64{}
	for _, line := range lines(input) {
		if rec, ok := datagen.ParseMovie(line); ok && len(rec.Ratings) > 0 {
			bucket := math.Min(5, math.Max(1, math.Round(rec.AvgRating()*2)/2))
			n[fmt.Sprintf("%.1f", bucket)]++
		}
	}
	return counts(n)
}

func refHistogramRatings(input []byte, _ Run) Output {
	n := map[string]int64{}
	for _, line := range lines(input) {
		_ = datagen.EachRating(line, func(_ int, r float64) error { // fn returns no error
			n[strconv.Itoa(int(r))]++
			return nil
		})
	}
	return counts(n)
}

// refNaiveBayes sums, over "label<TAB>words" documents, the words under
// each label and the occurrences of each word.
func refNaiveBayes(input []byte, _ Run) Output {
	n := map[string]int64{}
	for _, line := range lines(input) {
		label, body, ok := strings.Cut(line, "\t")
		if !ok || label == "" {
			continue
		}
		for _, w := range strings.Fields(body) {
			n["labelweight|"+label]++
			n["featureweight|"+w]++
		}
	}
	return counts(n)
}

func refClassification(input []byte, r Run) Output {
	out := Output{}
	for _, line := range lines(input) {
		if rec, ok := datagen.ParseMovie(line); ok && len(rec.Ratings) > 0 {
			best, _ := nearest(rec, r.Centroids)
			out[assignKey+rec.ID] = strconv.Itoa(best)
		}
	}
	return out
}

// refKMeans is one iteration: assign every movie to its most similar
// centroid, then make each cluster's new centroid the member of median
// similarity, members ordered by (similarity, id).
func refKMeans(input []byte, r Run) Output {
	type member struct {
		sim float64
		rec datagen.MovieRecord
	}
	out := Output{}
	clusters := map[int][]member{}
	for _, line := range lines(input) {
		rec, ok := datagen.ParseMovie(line)
		if !ok || len(rec.Ratings) == 0 {
			continue
		}
		best, sim := nearest(rec, r.Centroids)
		out[assignKey+rec.ID] = strconv.Itoa(best)
		// A similarity is defined to 12 significant digits: that is what
		// both versions carry to the reduce.
		sim, _ = strconv.ParseFloat(fmt.Sprintf("%.12g", sim), 64)
		clusters[best] = append(clusters[best], member{sim, rec})
	}
	for c, ms := range clusters {
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].sim != ms[j].sim {
				return ms[i].sim < ms[j].sim
			}
			return ms[i].rec.ID < ms[j].rec.ID
		})
		// The centroid is the medoid's ratings as "user:rating", by user.
		ratings := ms[len(ms)/2].rec.Ratings
		sort.Slice(ratings, func(i, j int) bool { return ratings[i].User < ratings[j].User })
		entries := make([]string, len(ratings))
		for i, r := range ratings {
			entries[i] = fmt.Sprintf("%d:%g", r.User, r.Rating)
		}
		out[strconv.Itoa(c)] = strings.Join(entries, ",")
	}
	return out
}

// nearest is the index of the centroid most similar to the movie, ties to
// the lower index, and that similarity.
func nearest(rec datagen.MovieRecord, centroids []map[int]float64) (int, float64) {
	best, bestSim := 0, -1.0
	for i, c := range centroids {
		if sim := rec.Cosine(c); sim > bestSim {
			best, bestSim = i, sim
		}
	}
	return best, bestSim
}

// refPageRank runs r.PageRankIters rounds of rank = 0.15 + 0.85·Σ
// contributions over "src dst" edges; every page starts at 1 and keeps its
// rank in a round that brings it nothing.
func refPageRank(input []byte, r Run) Output {
	var edges [][2]string
	outdeg := map[string]float64{}
	rank := map[string]float64{}
	for _, line := range lines(input) {
		if f := strings.Fields(line); len(f) == 2 {
			edges = append(edges, [2]string{f[0], f[1]})
			outdeg[f[0]]++
			rank[f[0]], rank[f[1]] = 1, 1
		}
	}
	for it := 0; it < r.PageRankIters; it++ {
		sum := map[string]float64{}
		for _, e := range edges {
			sum[e[1]] += rank[e[0]] / outdeg[e[0]]
		}
		for page, s := range sum {
			rank[page] = 0.15 + 0.85*s
		}
	}
	return rankOutput(r.PageRankIters, rank)
}

// refKCliques enumerates, by brute force, every set of r.KCliquesK mutually
// adjacent vertices of the undirected "u v" edge list, as "v1,...,vK" in
// ascending order.
func refKCliques(input []byte, r Run) Output {
	adj := map[int64]map[int64]bool{}
	link := func(u, v int64) {
		if adj[u] == nil {
			adj[u] = map[int64]bool{}
		}
		adj[u][v] = true
	}
	for _, line := range lines(input) {
		if f := strings.Fields(line); len(f) == 2 {
			u, _ := strconv.ParseInt(f[0], 10, 64)
			v, _ := strconv.ParseInt(f[1], 10, 64)
			if u != v {
				link(u, v)
				link(v, u)
			}
		}
	}
	out := Output{}
	var extend func(clique []int64)
	extend = func(clique []int64) {
		if len(clique) == r.KCliquesK {
			parts := make([]string, len(clique))
			for i, v := range clique {
				parts[i] = strconv.FormatInt(v, 10)
			}
			out[strings.Join(parts, ",")] = "1"
			return
		}
	next:
		for n := range adj[clique[len(clique)-1]] {
			for _, m := range clique {
				if n <= m || !adj[n][m] {
					continue next
				}
			}
			// Copy: sibling extensions must not share a backing array.
			extend(append(append([]int64(nil), clique...), n))
		}
	}
	for v := range adj {
		extend([]int64{v})
	}
	return out
}
