package hamrapps

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hamr-go/hamr/internal/apps/kernel"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
)

func newCluster(t testing.TB, nodes int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		NumNodes:      nodes,
		HDFSBlockSize: 4 << 10,
		Core:          core.Config{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPositionRoundTripProperty(t *testing.T) {
	f := func(node uint8, file string, off int64) bool {
		if strings.ContainsAny(file, "|") {
			return true // '|' is the separator; files never contain it
		}
		if off < 0 {
			off = -off
		}
		p := Position{Node: int(node), File: file, Offset: off}
		got, err := ParsePosition(p.String())
		return err == nil && got == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "1|file", "x|f|1", "1|f|x"} {
		if _, err := ParsePosition(bad); err == nil {
			t.Errorf("ParsePosition(%q) accepted", bad)
		}
	}
}

func TestCentroidFormatRoundTripProperty(t *testing.T) {
	f := func(users []uint8, ratings []uint8) bool {
		v := make(map[int]float64)
		for i, u := range users {
			r := float64(1)
			if len(ratings) > 0 {
				r = float64(ratings[i%len(ratings)]%5) + 1
			}
			v[int(u)] = r
		}
		c := datagen.NewCentroid(v)
		got, err := kernel.ParseCentroid(kernel.FormatCentroid(c))
		if err != nil || len(got.Vector()) != len(v) {
			return false
		}
		for u, r := range v {
			if got.Vector()[u] != r {
				return false
			}
		}
		// The parsed centroid scores as the one it was formatted from.
		rec := datagen.MovieRecord{Ratings: []datagen.Rating{{User: 7, Rating: 3}, {User: 200, Rating: 1}}}
		return rec.Cosine(got) == rec.Cosine(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(37))}); err != nil {
		t.Fatal(err)
	}
	if c, err := kernel.ParseCentroid(""); err != nil || len(c.Vector()) != 0 {
		t.Errorf("empty centroid: %v, %v", c, err)
	}
}

func TestLocalTextLoaderPositionsResolve(t *testing.T) {
	c := newCluster(t, 2)
	content := "alpha\nbeta\ngamma\n"
	if err := c.WriteLocalText(1, "input/f", []byte(content)); err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph("positions")
	sink := core.NewCollectSink()
	ld, _ := g.AddLoader("load", &LocalTextLoader{
		Files:        map[int][]string{1: {"input/f"}},
		WithPosition: true,
	})
	sk, _ := g.AddSink("out", sink)
	g.Connect(ld, sk)
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 3 {
		t.Fatalf("%d lines", sink.Len())
	}
	for _, kv := range sink.Pairs() {
		p, err := ParsePosition(kv.Key)
		if err != nil {
			t.Fatal(err)
		}
		if p.Node != 1 || p.File != "input/f" {
			t.Fatalf("position %v", p)
		}
		// Re-reading the line at the recorded offset must return the
		// original value — the K-Means locality contract.
		data, err := c.ReadLocalText(1, p.File)
		if err != nil {
			t.Fatal(err)
		}
		rest := string(data[p.Offset:])
		if line := rest[:strings.IndexByte(rest, '\n')]; line != kv.Value.(string) {
			t.Fatalf("offset %d holds %q, loader emitted %q", p.Offset, line, kv.Value)
		}
	}
}

func TestHDFSTextLoader(t *testing.T) {
	c := newCluster(t, 3)
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "row %d\n", i)
	}
	if err := c.FS().WriteFile("in/t.txt", []byte(sb.String()), -1); err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph("hdfsload")
	sink := core.NewCountSink()
	ld, _ := g.AddLoader("load", &HDFSTextLoader{Prefix: "in/"})
	sk, _ := g.AddSink("out", sink)
	g.Connect(ld, sk)
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	if sink.Count() != 200 {
		t.Fatalf("loaded %d lines", sink.Count())
	}
}

func TestLoaderErrors(t *testing.T) {
	if _, err := (&LocalTextLoader{}).Plan(&core.Env{NumNodes: 1}); err == nil {
		t.Error("empty LocalTextLoader planned")
	}
	if _, err := (&HDFSTextLoader{Prefix: "missing/"}).Plan(&core.Env{
		NumNodes: 1, Services: map[string]any{},
	}); err == nil {
		t.Error("HDFSTextLoader planned without hdfs service")
	}
}

func TestBestClusterDeterministic(t *testing.T) {
	rec := datagen.MovieRecord{ID: "m", Ratings: []datagen.Rating{{User: 1, Rating: 5}, {User: 2, Rating: 3}}}
	cents := []Centroid{datagen.NewCentroid(map[int]float64{1: 5, 2: 3}), datagen.NewCentroid(map[int]float64{9: 1})}
	best, sim := BestCluster(rec, cents)
	if best != 0 || sim < 0.99 {
		t.Fatalf("BestCluster = %d, %v", best, sim)
	}
	// Ties break toward the lower index.
	same := []Centroid{datagen.NewCentroid(map[int]float64{1: 1}), datagen.NewCentroid(map[int]float64{1: 1})}
	if b, _ := BestCluster(rec, same); b != 0 {
		t.Fatalf("tie went to %d", b)
	}
}

func TestWordCountGraphShape(t *testing.T) {
	loader := &LocalTextLoader{Files: map[int][]string{0: {"f"}}}
	g, _, err := BuildWordCount(WordCountOptions{Loader: loader, Combiner: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range g.Flowlets() {
		names[f.Name] = true
	}
	for _, want := range []string{"load", "split", "combine", "count", "out"} {
		if !names[want] {
			t.Errorf("flowlet %q missing with combiner", want)
		}
	}
	g2, _, _ := BuildWordCount(WordCountOptions{Loader: loader})
	if len(g2.Flowlets()) != len(g.Flowlets())-1 {
		t.Error("combiner did not add exactly one flowlet")
	}
}

func TestKCliquesGraphDepthMatchesK(t *testing.T) {
	loader := &LocalTextLoader{Files: map[int][]string{0: {"f"}}}
	for k := 2; k <= 6; k++ {
		g, _, err := BuildKCliques(k, loader)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		verifies := 0
		for _, f := range g.Flowlets() {
			if strings.HasPrefix(f.Name, "verify") {
				verifies++
			}
		}
		if verifies != k-1 {
			t.Errorf("k=%d: %d verify stages, want %d", k, verifies, k-1)
		}
	}
	if _, _, err := BuildKCliques(1, loader); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestKCliquesOnKnownGraph(t *testing.T) {
	c := newCluster(t, 3)
	// A 5-clique plus a ring: C(5,3)=10 triangles, C(5,4)=5 four-cliques.
	data := datagen.CliqueTestGraph(5, 8)
	files, err := DistributeLocalText(c, "g", data, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[int]int{3: 10, 4: 5, 5: 1} {
		g, sink, err := BuildKCliques(k, &LocalTextLoader{Files: files})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(g); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if sink.Len() != want {
			t.Errorf("k=%d: found %d cliques, want %d", k, sink.Len(), want)
		}
	}
}

// TestKCliquesTwoListsEveryEdgeOnce: at K = 2 the seeder's candidates
// pass through verify2 to the sink, so the answer is the graph's edge set,
// each undirected edge once.
func TestKCliquesTwoListsEveryEdgeOnce(t *testing.T) {
	c := newCluster(t, 3)
	data := datagen.CliqueTestGraph(5, 8)
	want := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var u, v int
		if _, err := fmt.Sscan(line, &u, &v); err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprintf("%d,%d", min(u, v), max(u, v))] = 1
	}
	files, err := DistributeLocalText(c, "g", data, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, sink, err := BuildKCliques(2, &LocalTextLoader{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, kv := range sink.Pairs() {
		got[kv.Key]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("2-cliques %v, want each of %d edges once: %v", got, len(want), want)
	}
}

func TestPageRankHubDominates(t *testing.T) {
	c := newCluster(t, 3)
	var sb strings.Builder
	const pages = 30
	for i := 1; i < pages; i++ {
		fmt.Fprintf(&sb, "%d 0\n", i)       // everyone links to the hub
		fmt.Fprintf(&sb, "0 %d\n", i)       // hub links back
		fmt.Fprintf(&sb, "%d %d\n", i, i%5) // noise
	}
	files, err := DistributeLocalText(c, "pr", []byte(sb.String()), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPageRank(c, &LocalTextLoader{Files: files}, 1e-6, 15)
	if err != nil {
		t.Fatal(err)
	}
	hub := res.Ranks["0"]
	for page, r := range res.Ranks {
		if page != "0" && r >= hub {
			t.Errorf("page %s rank %.4f >= hub %.4f", page, r, hub)
		}
	}
	if res.Iterations < 2 {
		t.Errorf("converged suspiciously fast: %d iterations", res.Iterations)
	}
}

// seqPageRank is PageRank over "src dst" lines the way Algorithm 2 defines
// it — every page starts at 1, a page that receives nothing keeps its rank
// — on one thread: the final ranks and each iteration's largest |Δrank|.
func seqPageRank(edgeLines string, iters int) (map[string]float64, []float64) {
	var edges [][2]string
	outdeg, rank := map[string]float64{}, map[string]float64{}
	for _, line := range strings.Split(edgeLines, "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			edges = append(edges, [2]string{f[0], f[1]})
			outdeg[f[0]]++
			rank[f[0]], rank[f[1]] = 1, 1
		}
	}
	var deltas []float64
	for it := 0; it < iters; it++ {
		sum := map[string]float64{}
		for _, e := range edges {
			sum[e[1]] += rank[e[0]] / outdeg[e[0]]
		}
		largest := 0.0
		for page, s := range sum {
			next := 0.15 + 0.85*s
			largest = math.Max(largest, math.Abs(next-rank[page]))
			rank[page] = next
		}
		deltas = append(deltas, largest)
	}
	return rank, deltas
}

// TestPageRankDeltaFoldsLocally holds the convergence check's dataflow: the
// deltas all carry one key, so they are folded on the node that produced
// them and one pair per node reaches the driver — not shuffled to the one
// node that key hashes to — and the driver's maximum over those pairs is
// still the iteration's true maximum.
func TestPageRankDeltaFoldsLocally(t *testing.T) {
	const nodes, iters = 4, 3
	c := newCluster(t, nodes)
	var sb strings.Builder
	const pages = 40
	for i := 1; i < pages; i++ {
		fmt.Fprintf(&sb, "%d 0\n0 %d\n%d %d\n", i, i, i, (i*7+3)%pages)
	}
	files, err := DistributeLocalText(c, "pr", []byte(sb.String()), 4)
	if err != nil {
		t.Fatal(err)
	}
	loader := &LocalTextLoader{Files: files}
	wantRanks, wantDeltas := seqPageRank(sb.String(), iters)

	for it := 0; it < iters; it++ {
		g, sink, err := BuildPageRankIteration(it == 0, loader)
		if err != nil {
			t.Fatal(err)
		}
		local := 0
		for _, e := range g.Edges() {
			from, to := g.Flowlets()[e.From].Name, g.Flowlets()[e.To].Name
			switch from + ">" + to {
			case "merge>cont", "cont>maxdelta":
				local++
				if e.Routing != core.RouteLocal {
					t.Errorf("edge %s -> %s has routing %v, want RouteLocal: a constant key over a shuffle is an all-to-one transfer", from, to, e.Routing)
				}
			}
		}
		if local != 2 {
			t.Fatalf("found %d of the edges merge -> cont -> maxdelta", local)
		}
		if _, err := c.Run(g); err != nil {
			t.Fatal(err)
		}
		pairs := sink.Pairs()
		if len(pairs) == 0 || len(pairs) > nodes {
			t.Fatalf("iteration %d: %d pairs at the sink, want one per node that reduced a page (1-%d)", it+1, len(pairs), nodes)
		}
		got := 0.0
		for _, kv := range pairs {
			if kv.Key != "delta" {
				t.Errorf("iteration %d: sink pair keyed %q, want \"delta\"", it+1, kv.Key)
			}
			got = math.Max(got, kv.Value.(float64))
		}
		if math.Abs(got-wantDeltas[it]) > 1e-12 {
			t.Errorf("iteration %d: max over the nodes' maxima = %.15f, sequential max |Δrank| = %.15f", it+1, got, wantDeltas[it])
		}
	}

	res, err := RunPageRank(c, loader, 0, iters)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != len(wantRanks) {
		t.Errorf("%d ranks, sequential has %d", len(res.Ranks), len(wantRanks))
	}
	for page, want := range wantRanks {
		if got := res.Ranks[page]; math.Abs(got-want) > 1e-9 {
			t.Errorf("page %s: rank %.12f, sequential %.12f", page, got, want)
		}
	}

	// The epsilon stop reads the global maximum: a driver that took the
	// first pair, or a node whose maximum went missing, would see less
	// than iteration 1's true delta and stop one iteration early.
	d1 := wantDeltas[0]
	for _, tc := range []struct {
		epsilon float64
		iters   int
	}{{d1 * (1 + 1e-9), 1}, {d1 * (1 - 1e-9), 2}} {
		res, err := RunPageRank(c, loader, tc.epsilon, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != tc.iters {
			t.Errorf("epsilon %.12f against a first max delta of %.12f: %d iterations, want %d (last max delta %.12f)",
				tc.epsilon, d1, res.Iterations, tc.iters, res.MaxDelta)
		}
	}
}

func TestNaiveBayesWeightsConsistent(t *testing.T) {
	c := newCluster(t, 3)
	data := datagen.Docs(datagen.DocsConfig{Seed: 41, Labels: 2, Vocabulary: 30, Docs: 120})
	files, err := DistributeLocalText(c, "nb", data, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, sink, err := BuildNaiveBayes(&LocalTextLoader{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	var labelTotal, featureTotal int64
	for _, kv := range sink.Pairs() {
		switch {
		case strings.HasPrefix(kv.Key, "labelweight|"):
			labelTotal += kv.Value.(int64)
		case strings.HasPrefix(kv.Key, "featureweight|"):
			featureTotal += kv.Value.(int64)
		default:
			t.Errorf("unexpected output key %q", kv.Key)
		}
	}
	// Both views sum the same underlying word occurrences.
	if labelTotal == 0 || labelTotal != featureTotal {
		t.Fatalf("label total %d != feature total %d", labelTotal, featureTotal)
	}
}

func TestHistogramMoviesBucketsValid(t *testing.T) {
	c := newCluster(t, 2)
	data := datagen.Movies(datagen.MoviesConfig{Seed: 43, Movies: 300, Users: 50})
	files, _ := DistributeLocalText(c, "hm", data, 4)
	g, sink, err := BuildHistogramMovies(HistogramOptions{Loader: &LocalTextLoader{Files: files}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, kv := range sink.Pairs() {
		var b float64
		if _, err := fmt.Sscanf(kv.Key, "%f", &b); err != nil || b < 1 || b > 5 {
			t.Errorf("bad bucket %q", kv.Key)
		}
		total += kv.Value.(int64)
	}
	if total != 300 {
		t.Fatalf("histogram covers %d movies, want 300", total)
	}
}

// TestKeysMatchTheirFmtForms: the per-record strings built without fmt are
// the strings fmt built — they are keys and values both engines and the
// reference must agree on to the byte.
func TestKeysMatchTheirFmtForms(t *testing.T) {
	for avg := -1.0; avg <= 7; avg += 0.125 {
		bucket := math.Min(5, math.Max(1, math.Round(avg*2)/2))
		if got, want := kernel.BucketKey(avg), fmt.Sprintf("%.1f", bucket); got != want {
			t.Errorf("BucketKey(%v) = %q, %%.1f of its half-star bucket gives %q", avg, got, want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, sim := range []float64{0, 1, 0.5, 1e-7, 0.999999999999, 1.0 / 3, 123456789012345, 1e21} {
		for i := 0; i < 20; i++ {
			if got, want := string(kernel.AppendSimilarity(nil, sim)), fmt.Sprintf("%.12g", sim); got != want {
				t.Errorf("AppendSimilarity(%v) = %q, %%.12g gives %q", sim, got, want)
			}
			sim *= rng.Float64()
		}
	}
	for _, p := range []Position{{}, {Node: 7, File: "input/kmeans-part-0003", Offset: 1 << 40}, {Node: -1, File: "a|b", Offset: -5}} {
		if got, want := p.String(), fmt.Sprintf("%d|%s|%d", p.Node, p.File, p.Offset); got != want {
			t.Errorf("Position%+v.String() = %q, want %q", p, got, want)
		}
	}
}
