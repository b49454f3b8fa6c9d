// Package kernel states each Table 2 row's record logic once, for both
// engines: what one input line, one cluster's members or one candidate
// clique becomes, emitted through an emit func(core.KV) error. Nothing here
// knows which engine calls it. The flowlet graphs (hamrapps) and the
// PUMA/HiBench job chains (mrapps) are thin adapters around these kernels;
// they keep what differs by design: the job and graph shapes, the wire
// forms their data moves in, and their Charge calls. The single-threaded
// reference in package apps shares none of this code.
package kernel

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
)

// The counting rows: WordCount, HistogramMovies and HistogramRatings map a
// line to (key, 1) pairs, which both engines sum.

// Words is WordCount's map: (w, 1) for every whitespace-separated word w.
func Words(line string, emit func(core.KV) error) error {
	return datagen.EachField(line, func(w string) error {
		return emit(core.KV{Key: w, Value: int64(1)})
	})
}

// MovieBucket is HistogramMovies' map: one count for the half-star bucket
// (1.0, 1.5, ..., 5.0) of the movie's average rating — 8 buckets, like the
// PUMA benchmark. A line that is not a movie with ratings counts nowhere.
func MovieBucket(line string, emit func(core.KV) error) error {
	rec, ok := datagen.ParseMovie(line)
	if !ok || len(rec.Ratings) == 0 {
		return nil
	}
	return emit(core.KV{Key: BucketKey(rec.AvgRating()), Value: int64(1)})
}

// bucketKeys are the half-star buckets 1.0 ... 5.0, indexed by 2b-2.
var bucketKeys = [...]string{"1.0", "1.5", "2.0", "2.5", "3.0", "3.5", "4.0", "4.5", "5.0"}

// BucketKey is the half-star bucket of an average rating, to one decimal:
// the average rounded to the nearest half star and clamped to 1.0 ... 5.0.
func BucketKey(avg float64) string {
	i := math.Round(avg*2) - 2
	if !(i > 0) { // also NaN
		i = 0
	}
	return bucketKeys[int(math.Min(i, float64(len(bucketKeys)-1)))]
}

// Ratings is HistogramRatings' map: one count per individual rating. The
// key space is the five values 1..5, the skew behind the paper's 0.26x.
func Ratings(line string, emit func(core.KV) error) error {
	return datagen.EachRating(line, func(_ int, r float64) error {
		return emit(core.KV{Key: strconv.Itoa(int(r)), Value: int64(1)})
	})
}

// K-Means and Classification: assign each movie to its most similar
// centroid; K-Means then makes each cluster's median member its centroid.

// Centroid is a sparse user -> rating vector.
type Centroid = map[int]float64

// FormatCentroid serializes a sparse centroid as "u:r,u:r" with sorted
// user ids (deterministic).
func FormatCentroid(c Centroid) string {
	users := make([]int, 0, len(c))
	for u := range c {
		users = append(users, u)
	}
	sort.Ints(users)
	parts := make([]string, len(users))
	for i, u := range users {
		parts[i] = fmt.Sprintf("%d:%g", u, c[u])
	}
	return strings.Join(parts, ",")
}

// ParseCentroid parses FormatCentroid's output.
func ParseCentroid(s string) (Centroid, error) {
	c := make(Centroid)
	if s == "" {
		return c, nil
	}
	for _, p := range strings.Split(s, ",") {
		i := strings.IndexByte(p, ':')
		if i <= 0 {
			return nil, fmt.Errorf("kernel: bad centroid entry %q", p)
		}
		u, err := strconv.Atoi(p[:i])
		if err != nil {
			return nil, err
		}
		r, err := strconv.ParseFloat(p[i+1:], 64)
		if err != nil {
			return nil, err
		}
		c[u] = r
	}
	return c, nil
}

// BestCluster returns the index of the centroid most similar to the movie
// (cosine similarity, ties to the lower index) and that similarity.
func BestCluster(rec datagen.MovieRecord, centroids []Centroid) (int, float64) {
	best, bestSim := 0, -1.0
	for i, c := range centroids {
		if sim := rec.Cosine(c); sim > bestSim {
			best, bestSim = i, sim
		}
	}
	return best, bestSim
}

// Assign is the map of K-Means and Classification: the movie on line, the
// key of the cluster it is assigned to and its similarity to that
// cluster's centroid. ok is false for a line that is not a movie with
// ratings, which is assigned nowhere.
func Assign(line string, centroids []Centroid) (rec datagen.MovieRecord, cluster string, sim float64, ok bool) {
	rec, ok = datagen.ParseMovie(line)
	if !ok || len(rec.Ratings) == 0 {
		return rec, "", 0, false
	}
	best, sim := BestCluster(rec, centroids)
	return rec, strconv.Itoa(best), sim, true
}

// FormatSimilarity renders a similarity to 12 significant digits (%.12g),
// which is what a similarity is defined to: it is all that reaches the
// K-Means reduce on either engine.
func FormatSimilarity(sim float64) string { return strconv.FormatFloat(sim, 'g', 12, 64) }

// Member is one member of a K-Means cluster as the medoid rule sees it: its
// similarity (as FormatSimilarity carried it), its movie id, and Ref, what
// the caller finds the record again by.
type Member struct {
	Sim     float64
	ID, Ref string
}

// Medoid is the K-Means reduce: a cluster's new centroid is the member of
// median similarity (the upper median), members ordered by (similarity,
// movie id) — a medoid-style update that is robust to the seed itself
// being in the data. It sorts ms, which must not be empty.
func Medoid(ms []Member) Member {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Sim != ms[j].Sim {
			return ms[i].Sim < ms[j].Sim
		}
		return ms[i].ID < ms[j].ID
	})
	return ms[len(ms)/2]
}

// CentroidOf is the new centroid the chosen member's record line makes, in
// FormatCentroid's form; ok is false for a line that is not a movie.
func CentroidOf(line string) (string, bool) {
	rec, ok := datagen.ParseMovie(line)
	if !ok {
		return "", false
	}
	return FormatCentroid(rec.Vector()), true
}

// NaiveBayes: "label<TAB>w w w" documents; the answer is each label's total
// word weight and each word's.

// Document splits a training line into its label and its words' text; ok
// is false for a line with no label.
func Document(line string) (label, words string, ok bool) {
	tab := strings.IndexByte(line, '\t')
	if tab <= 0 {
		return "", "", false
	}
	return line[:tab], line[tab+1:], true
}

// LabelWeight is the output key of the total weight of a label's words.
func LabelWeight(label string) string { return "labelweight|" + label }

// FeatureWeight is the output key of one word's weight over every label.
func FeatureWeight(feature string) string { return "featureweight|" + feature }

// PageRank and K-Cliques read edge lists: one "u v" edge a line.

// EdgeLine splits an edge line into its two ends. A blank line holds no
// edge (ok false); a line of any other shape is an error. A line listed
// twice is two edges.
func EdgeLine(line string) (src, dst string, ok bool, err error) {
	switch f := strings.Fields(line); len(f) {
	case 0:
		return "", "", false, nil
	case 2:
		return f[0], f[1], true, nil
	}
	return "", "", false, fmt.Errorf("kernel: bad edge line %q", line)
}

// Damping is PageRank's damping factor.
const Damping = 0.85

// Rank is PageRank's rank rule: a page whose in-edges brought it
// contributions summing to sum ranks (1-Damping) + Damping·sum. Every page
// starts at 1, and a page a round brings nothing keeps its rank.
func Rank(sum float64) float64 { return (1 - Damping) + Damping*sum }

// Share is what a page of the given rank contributes along each of its
// out-edges: an edge line listed twice carries two shares.
func Share(rank float64, edges int) float64 { return rank / float64(edges) }

// Edge is one undirected K-Cliques edge: its ends as written and as vertex
// ids.
type Edge struct {
	U, V     string
	UID, VID int64
}

// UndirectedEdge parses a K-Cliques edge line. A self loop, like a blank
// line, is no edge (ok false); ends that are not vertex ids are an error.
func UndirectedEdge(line string) (e Edge, ok bool, err error) {
	if e.U, e.V, ok, err = EdgeLine(line); !ok {
		return e, false, err
	}
	if e.UID, err = strconv.ParseInt(e.U, 10, 64); err != nil {
		return e, false, err
	}
	if e.VID, err = strconv.ParseInt(e.V, 10, 64); err != nil {
		return e, false, err
	}
	return e, e.UID != e.VID, nil
}

// Extend is K-Cliques' verify-and-extend step. clique is a candidate
// "v1,...,vi" in ascending vertex order and adj the neighbor set of its
// newest vertex vi. A candidate an earlier member of which is not a
// neighbor of vi is no clique, and yields nothing. A valid candidate of k
// members is emitted as (clique, 1); a shorter one as one (clique+","+n, 1)
// per neighbor n > vi, in ascending order, so every clique is found once.
func Extend(clique string, adj map[int64]bool, k int, emit func(core.KV) error) error {
	members, newest := 0, int64(0)
	for rest, more := clique, true; more; members++ {
		var m string
		m, rest, more = strings.Cut(rest, ",")
		v, err := strconv.ParseInt(m, 10, 64)
		if err != nil {
			return err
		}
		if more && !adj[v] {
			return nil
		}
		newest = v
	}
	if members == k {
		return emit(core.KV{Key: clique, Value: int64(1)})
	}
	next := make([]int64, 0, len(adj))
	for n := range adj {
		if n > newest {
			next = append(next, n)
		}
	}
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	for _, n := range next {
		if err := emit(core.KV{Key: clique + "," + strconv.FormatInt(n, 10), Value: int64(1)}); err != nil {
			return err
		}
	}
	return nil
}
