package hamrapps

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/storage"
)

// K-Means, Algorithm 1 — the flagship data-locality benchmark (§3.3).
// One clustering iteration:
//
//	TextLoader(position) -> ClusterGen(map)    assigns each movie to its
//	                                           most-similar centroid, writes
//	                                           the assignment to the local
//	                                           disk, and ships only
//	                                           (cluster, position|similarity)
//	                                           — never the rating vectors.
//	-> NewCentroidGen(reduce)                  picks each cluster's new
//	                                           representative and routes its
//	                                           *position* back to the node
//	                                           that holds the record.
//	-> NewCentroidInfoGet(map)                 re-reads the record locally
//	                                           and broadcasts the new
//	                                           centroid vector to all nodes.
//	-> CentroidUpdate(map)                     installs the centroid in the
//	                                           node-local kv-store and (on
//	                                           node 0) emits it as output.

// Centroid is a sparse rating vector.
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
			return nil, fmt.Errorf("hamrapps: bad centroid entry %q", p)
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

// ClusterGen assigns movies to centroids (Alg. 1 step 3).
type ClusterGen struct {
	Centroids []Centroid
}

// Map implements core.Mapper. kv.Key is the record's Position string.
func (m *ClusterGen) Map(kv core.KV, ctx core.Context) error {
	rec, ok := datagen.ParseMovie(kv.Value.(string))
	if !ok || len(rec.Ratings) == 0 {
		return nil
	}
	best, sim := BestCluster(rec, m.Centroids)
	cluster := strconv.Itoa(best)
	// Data locality: write the full assignment locally...
	if err := ctx.EmitTo("assign", core.KV{Key: cluster, Value: rec.ID}); err != nil {
		return err
	}
	// ...and ship only the location + similarity to the reducer.
	return ctx.EmitTo("newcentroid", core.KV{
		Key:   cluster,
		Value: kv.Key + ";" + FormatSimilarity(sim) + ";" + rec.ID,
	})
}

// FormatSimilarity renders a similarity to 12 significant digits (%.12g),
// which is what a similarity is defined to on both engines: it is all that
// reaches either reduce.
func FormatSimilarity(sim float64) string { return strconv.FormatFloat(sim, 'g', 12, 64) }

// NewCentroidGen picks each cluster's new representative — the
// median-similarity member, a medoid-style update that is robust to the
// seed itself being in the data — and routes its *position* to the node
// holding the record (Alg. 1 step 4). Ordering is deterministic:
// (similarity, movie id).
type NewCentroidGen struct{}

// simRec is one parsed "pos;sim;id" similarity record.
type simRec struct {
	pos string
	sim float64
	id  string
}

func parseSimRec(s string) (simRec, error) {
	parts := strings.Split(s, ";")
	if len(parts) != 3 {
		return simRec{}, fmt.Errorf("hamrapps: bad similarity record %q", s)
	}
	sim, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return simRec{}, err
	}
	return simRec{pos: parts[0], sim: sim, id: parts[2]}, nil
}

// MedianIndex returns the index of the median element of a sorted list of
// n items (n/2, the upper median).
func MedianIndex(n int) int { return n / 2 }

// Reduce implements core.Reducer.
func (NewCentroidGen) Reduce(key string, values []any, ctx core.Context) error {
	recs := make([]simRec, 0, len(values))
	for _, v := range values {
		r, err := parseSimRec(v.(string))
		if err != nil {
			return err
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].sim != recs[j].sim {
			return recs[i].sim < recs[j].sim
		}
		return recs[i].id < recs[j].id
	})
	chosen := recs[MedianIndex(len(recs))]
	p, err := ParsePosition(chosen.pos)
	if err != nil {
		return err
	}
	// Route back to the node where the record lives (§3.3: "go back to
	// the node which the data resides in").
	return ctx.EmitToNode("centroidinfo", p.Node, core.KV{Key: key, Value: chosen.pos})
}

// NewCentroidInfoGet re-reads the chosen record from the local disk by
// offset and broadcasts the new centroid vector (Alg. 1 step 5).
type NewCentroidInfoGet struct{}

// Map implements core.Mapper.
func (NewCentroidInfoGet) Map(kv core.KV, ctx core.Context) error {
	p, err := ParsePosition(kv.Value.(string))
	if err != nil {
		return err
	}
	disk, ok := ctx.Service(cluster.ServiceDisk).(storage.Disk)
	if !ok {
		return fmt.Errorf("hamrapps: no disk service")
	}
	f, err := disk.Open(p.File)
	if err != nil {
		return fmt.Errorf("hamrapps: reopen %s: %w", p.File, err)
	}
	defer f.Close()
	line, err := readLineAt(f, p.Offset)
	if err != nil {
		return err
	}
	rec, ok2 := datagen.ParseMovie(line)
	if !ok2 {
		return fmt.Errorf("hamrapps: position %s does not hold a movie record", kv.Value)
	}
	return ctx.EmitBroadcast("update", core.KV{Key: kv.Key, Value: FormatCentroid(rec.Vector())})
}

// CentroidUpdate installs the new centroid locally on every node (Alg. 1
// step 6) and emits the result once (from node 0).
type CentroidUpdate struct {
	Table string
}

// Map implements core.Mapper.
func (m CentroidUpdate) Map(kv core.KV, ctx core.Context) error {
	st, err := Store(ctx)
	if err != nil {
		return err
	}
	table := m.Table
	if table == "" {
		table = "kmeans.centroids"
	}
	st.Table(table).LocalPut(ctx.Node(), kv.Key, kv.Value.(string))
	if ctx.Node() == 0 {
		return ctx.Emit(kv)
	}
	return nil
}

// KMeansOptions configures one K-Means iteration.
type KMeansOptions struct {
	Files     map[int][]string // node-local input files
	Centroids []Centroid
	// AssignmentSink overrides where (cluster, movie) assignments go;
	// the default CollectSink keeps them in memory. The edge into the
	// assignment sink is node-local either way (§3.3: output can happen
	// in map, on the local node).
	AssignmentSink core.Sink
}

// KMeansSinks carries the two outputs of a K-Means iteration.
type KMeansSinks struct {
	// Centroids receives (clusterID, centroid) pairs.
	Centroids *core.CollectSink
	// Assignments receives (clusterID, movieID) pairs on each node; nil
	// when an AssignmentSink override is installed.
	Assignments *core.CollectSink
}

// BuildKMeans constructs the Algorithm 1 graph for one iteration.
func BuildKMeans(opts KMeansOptions) (*core.Graph, *KMeansSinks, error) {
	if len(opts.Centroids) == 0 {
		return nil, nil, fmt.Errorf("hamrapps: kmeans needs initial centroids")
	}
	sinks := &KMeansSinks{
		Centroids:   core.NewCollectSink(),
		Assignments: core.NewCollectSink(),
	}
	var assignSink core.Sink = sinks.Assignments
	if opts.AssignmentSink != nil {
		assignSink = opts.AssignmentSink
		sinks.Assignments = nil
	}
	g, err := core.NewPipeline("kmeans", "load", &LocalTextLoader{Files: opts.Files, WithPosition: true}).
		Via(core.WithRouting(core.RouteLocal)).
		Map("clustergen", &ClusterGen{Centroids: opts.Centroids}).
		Reduce("newcentroid", NewCentroidGen{}).
		Map("centroidinfo", NewCentroidInfoGet{}). // routed explicitly with EmitToNode
		Map("update", CentroidUpdate{}).           // routed explicitly with EmitBroadcast
		Sink("out", sinks.Centroids)
	if err != nil {
		return nil, nil, err
	}
	asn, err := g.AddSink("assign", assignSink)
	if err != nil {
		return nil, nil, err
	}
	return g, sinks, g.Connect(g.FlowletID("clustergen"), asn)
}

// readLineAt returns the line starting at byte offset off of an open
// local file, reading no more than the line and a small read-ahead.
func readLineAt(f io.ReadSeeker, off int64) (string, error) {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return "", fmt.Errorf("hamrapps: seek to offset: %w", err)
	}
	line, err := bufio.NewReaderSize(f, 512).ReadString('\n')
	if err != nil && err != io.EOF {
		return "", fmt.Errorf("hamrapps: read record: %w", err)
	}
	return strings.TrimSuffix(line, "\n"), nil
}
