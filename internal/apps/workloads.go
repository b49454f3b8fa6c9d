// Package apps is the paper's evaluation as one table: each Table 2 row —
// its published numbers, its figure panel and expected shape, its input
// generator, its flowlet graph, its MapReduce job and a single-threaded
// reference — is defined once, in Table. The harness (internal/bench), both
// commands and the differential test read it; none of them names a
// benchmark.
package apps

import (
	"fmt"
	"io"
	"strings"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/mapreduce"
)

// Benchmark identifies one Table 2 row by the paper's spelling.
type Benchmark string

// The eight benchmarks of §4.
const (
	KMeans           Benchmark = "K-Means"
	Classification   Benchmark = "Classification"
	PageRank         Benchmark = "PageRank"
	KCliques         Benchmark = "KCliques"
	WordCount        Benchmark = "WordCount"
	HistogramMovies  Benchmark = "HistogramMovies"
	HistogramRatings Benchmark = "HistogramRatings"
	NaiveBayes       Benchmark = "NaiveBayes"
)

// PaperRow is a published Table 2 / Table 3 entry.
type PaperRow struct {
	DataSize string
	IDH      float64 // seconds
	HAMR     float64 // seconds
	Speedup  float64
}

// Band is the shape a row's speedup is expected to have: the direction of
// the win and its rough size, not absolute seconds.
type Band struct {
	Claim  string // what the paper shows for rows in this band
	Expect string // the bound, as printed after the numbers
	Holds  func(speedup float64) bool
}

// The three shapes of Table 2, in the order ShapeCheck reports them.
var (
	Decisive  = &Band{"HAMR wins decisively", ", expect >= 3.5x", func(x float64) bool { return x >= 3.5 }}
	Modest    = &Band{"modest difference", ", expect 0.85x-5x", func(x float64) bool { return x >= 0.85 && x <= 5.0 }}
	Inversion = &Band{"inversion — baseline wins", "", func(x float64) bool { return x < 1 }}
	Bands     = []*Band{Decisive, Modest, Inversion}
)

// Scale fixes the input sizes and the per-row parameters. The Paper column
// of each row records the original size for the reports.
type Scale struct {
	// Movies datasets (K-Means / Classification at "300GB",
	// HistogramMovies / HistogramRatings at "30GB").
	KMeansMovies    int
	KMeansUsers     int
	HistogramMovies int
	HistogramUsers  int
	// WordCount ("16GB") text.
	WordCountLines int
	WordCountVocab int
	// NaiveBayes ("10GB") documents.
	NaiveBayesDocs int
	// PageRank ("20GB") web graph.
	PageRankPages int
	PageRankIters int
	// K-Cliques ("168MB", 2^18 vertices / 7.6M edges in the paper).
	KCliquesScale int // 2^Scale vertices
	KCliquesEdges int
	KCliquesK     int
	// Clusters for K-Means / Classification.
	KClusters int
	// Reduces for the baseline.
	Reduces int
}

// Dataset is one generated input; rows that read the same bytes share it.
type Dataset struct {
	Gen func(Scale) []byte
}

var (
	movies300 = &Dataset{func(s Scale) []byte {
		return datagen.Movies(datagen.MoviesConfig{Seed: 1001, Movies: s.KMeansMovies, Users: s.KMeansUsers, Clusters: s.KClusters})
	}}
	movies30 = &Dataset{func(s Scale) []byte {
		return datagen.Movies(datagen.MoviesConfig{Seed: 1002, Movies: s.HistogramMovies, Users: s.HistogramUsers})
	}}
	text = &Dataset{func(s Scale) []byte {
		return datagen.Text(datagen.TextConfig{Seed: 1003, Vocabulary: s.WordCountVocab, Lines: s.WordCountLines})
	}}
	docs = &Dataset{func(s Scale) []byte {
		return datagen.Docs(datagen.DocsConfig{Seed: 1004, Docs: s.NaiveBayesDocs})
	}}
	webgraph = &Dataset{func(s Scale) []byte {
		return datagen.WebGraph(datagen.WebGraphConfig{Seed: 1005, Pages: s.PageRankPages})
	}}
	rmat = &Dataset{func(s Scale) []byte {
		return datagen.RMAT(datagen.RMATConfig{Seed: 1006, Scale: s.KCliquesScale, Edges: s.KCliquesEdges})
	}}
)

// Variant is a second way a row is run. The HAMR side changes; the baseline
// and the answer do not, unless the variant changes the problem itself (K).
type Variant struct {
	Name  string
	Paper *PaperRow // Table 3's entry, where the paper printed one
	// Combiner inserts HAMR's node-local pre-aggregation (Table 3);
	// Serialize applies §5.2's proposed fix for hot shared variables.
	Combiner, Serialize bool
	// K, when not 0, replaces the scale's clique size.
	K int
}

// Run is one execution's parameters: the scale's, the variant's, and what
// the row derives from its input before any clock starts.
type Run struct {
	Scale
	Variant
	// Centroids seed K-Means and Classification (the usual PUMA seeding).
	Centroids []hamrapps.Centroid
}

// Env is what one side of a row runs on: a fresh cluster holding the input.
// The flowlet side reads Files, the input split over the nodes' local disks;
// the baseline reads Input, its HDFS path, through Eng.
type Env struct {
	Run
	C     *cluster.Cluster
	Files map[int][]string
	Eng   *mapreduce.Engine
	Input string
}

// Collect reads a finished run's answer back. Reading an HDFS or local-disk
// output charges the substrate like any other read, so callers that measure
// call it after their clock has stopped and their counters are captured.
type Collect func() (Output, error)

// Workload is one Table 2 row.
type Workload struct {
	Name Benchmark
	// App is the row's spelling on cmd/hamr's command line.
	App   string
	Paper PaperRow
	// Panel is the Figure 3 panel the row is drawn in: "3a" or "3b".
	Panel    string
	Shape    *Band
	Variants []Variant
	Data     *Dataset
	// Seeded rows start from centroids picked out of their input.
	Seeded bool
	// The HAMR side is one flowlet graph and the sink that collects its
	// answer (nil: none; what it writes under "out/" on the nodes' own disks
	// is read either way) or, for a chain of jobs, a driver. Exactly one is
	// set.
	Graph func(e Env) (*core.Graph, *core.CollectSink, error)
	Drive func(e Env) (*core.JobResult, Collect, error)
	// MR is the baseline: a job, a chain or a driver over the HDFS input.
	MR func(e Env) (Collect, error)
	// Reference computes the answer from the input bytes alone, on one
	// thread and without either engine: the oracle.
	Reference func(input []byte, r Run) Output
	// Equal compares two values of one key (nil: as strings).
	Equal func(want, got string) bool
	// HAMROnly prefixes the keys only the flowlet version outputs.
	HAMROnly string
}

// Table lists the rows in Table 2's order. The histogram and wordcount jobs
// of the baseline use combiners, as the PUMA implementations do.
var Table = []*Workload{
	{
		Name: KMeans, App: "kmeans", Panel: "3a", Shape: Decisive,
		Paper: PaperRow{"300GB", 5215.079, 505.685, 10.31},
		Data:  movies300, Seeded: true, Reference: refKMeans,
		// The flowlet version writes each movie's assignment where the movie
		// lies (§3.3); the Hadoop job outputs the new centroids alone.
		HAMROnly: assignKey,
		Graph: func(e Env) (*core.Graph, *core.CollectSink, error) {
			g, sinks, err := hamrapps.BuildKMeans(hamrapps.KMeansOptions{
				Files: e.Files, Centroids: e.Centroids, AssignmentSink: e.localSink("out/kmeans-assign"),
			})
			if err != nil {
				return nil, nil, err
			}
			return g, sinks.Centroids, nil
		},
		MR: func(e Env) (Collect, error) {
			return e.chain(nil, mrapps.KMeansJob(e.Input, "out", e.Centroids, e.Reduces))
		},
	},
	{
		Name: Classification, App: "classification", Panel: "3a", Shape: Decisive,
		Paper: PaperRow{"300GB", 2773.660, 212.815, 13.03},
		Data:  movies300, Seeded: true, Reference: refClassification,
		Graph: func(e Env) (*core.Graph, *core.CollectSink, error) {
			g, err := hamrapps.BuildClassification(hamrapps.ClassificationOptions{
				Files: e.Files, Centroids: e.Centroids,
			}, e.localSink("out/classify-assign"))
			return g, nil, err
		},
		// The PUMA job materializes every record under its cluster.
		MR: func(e Env) (Collect, error) {
			return e.chain(assignment, mrapps.ClassificationJob(e.Input, "out", e.Centroids, e.Reduces, true))
		},
	},
	{
		Name: PageRank, App: "pagerank", Panel: "3a", Shape: Decisive,
		Paper: PaperRow{"20GB", 2162.102, 158.853, 13.61},
		Data:  webgraph, Reference: refPageRank, Equal: closeFloats,
		Drive: func(e Env) (*core.JobResult, Collect, error) {
			res, err := hamrapps.RunPageRank(e.C, e.loader(), 0, e.PageRankIters)
			if err != nil {
				return nil, nil, err
			}
			return res.Last, func() (Output, error) { return rankOutput(res.Iterations, res.Ranks), nil }, nil
		},
		MR: func(e Env) (Collect, error) {
			res, err := mrapps.RunPageRankMR(e.Eng, e.C.FS(), e.Input, "work", e.PageRankIters, e.Reduces)
			if err != nil {
				return nil, err
			}
			return func() (Output, error) { return rankOutput(res.Iterations, res.Ranks), nil }, nil
		},
	},
	{
		Name: KCliques, App: "kcliques", Panel: "3a", Shape: Decisive,
		Paper:    PaperRow{"168MB", 1161.246, 100.945, 11.50},
		Variants: []Variant{{Name: "k=4", K: 4}},
		Data:     rmat, Reference: refKCliques,
		Graph: func(e Env) (*core.Graph, *core.CollectSink, error) {
			return hamrapps.BuildKCliques(e.KCliquesK, e.loader())
		},
		MR: func(e Env) (Collect, error) {
			res, err := mrapps.RunKCliquesMR(e.Eng, e.C.FS(), e.Input, "work", e.KCliquesK, e.Reduces)
			if err != nil {
				return nil, err
			}
			return func() (Output, error) {
				out := Output{}
				for _, clique := range res.Cliques {
					if err := out.add(clique, "1"); err != nil {
						return nil, err
					}
				}
				return out, nil
			}, nil
		},
	},
	{
		Name: WordCount, App: "wordcount", Panel: "3b", Shape: Modest,
		Paper:    PaperRow{"16GB", 89.904, 75.078, 1.20},
		Variants: []Variant{{Name: "combiner", Combiner: true}},
		Data:     text, Reference: refWordCount,
		Graph: func(e Env) (*core.Graph, *core.CollectSink, error) {
			return hamrapps.BuildWordCount(hamrapps.WordCountOptions{Loader: e.loader(), Combiner: e.Combiner})
		},
		MR: func(e Env) (Collect, error) {
			return e.chain(nil, mrapps.WordCountJob(e.Input, "out", true, e.Reduces))
		},
	},
	{
		Name: HistogramMovies, App: "histogram-movies", Panel: "3b", Shape: Modest,
		Paper:    PaperRow{"30GB", 59.522, 34.542, 1.72},
		Variants: []Variant{{Name: "combiner", Combiner: true, Paper: &PaperRow{"30GB", 59.522, 33.234, 1.79}}},
		Data:     movies30, Reference: refHistogramMovies,
		Graph: func(e Env) (*core.Graph, *core.CollectSink, error) {
			return hamrapps.BuildHistogramMovies(e.histogram())
		},
		MR: func(e Env) (Collect, error) {
			return e.chain(nil, mrapps.HistogramMoviesJob(e.Input, "out", true, e.Reduces))
		},
	},
	{
		Name: HistogramRatings, App: "histogram-ratings", Panel: "3b", Shape: Inversion,
		Paper: PaperRow{"30GB", 66.694, 252.198, 0.26},
		Variants: []Variant{
			{Name: "combiner", Combiner: true, Paper: &PaperRow{"30GB", 66.694, 215.911, 0.31}},
			{Name: "serialize", Serialize: true},
		},
		Data: movies30, Reference: refHistogramRatings,
		Graph: func(e Env) (*core.Graph, *core.CollectSink, error) {
			return hamrapps.BuildHistogramRatings(e.histogram())
		},
		MR: func(e Env) (Collect, error) {
			return e.chain(nil, mrapps.HistogramRatingsJob(e.Input, "out", true, e.Reduces))
		},
	},
	{
		Name: NaiveBayes, App: "naivebayes", Panel: "3b", Shape: Modest,
		Paper: PaperRow{"10GB", 263.078, 108.29, 2.43},
		Data:  docs, Reference: refNaiveBayes,
		Graph: func(e Env) (*core.Graph, *core.CollectSink, error) { return hamrapps.BuildNaiveBayes(e.loader()) },
		MR: func(e Env) (Collect, error) {
			return e.chain(nil, mrapps.NaiveBayesJobs(e.Input, "mid", "out", e.Reduces)...)
		},
	},
}

// Lookup finds a row by either of its spellings, ignoring case; nil if the
// name is neither.
func Lookup(name string) *Workload {
	for _, w := range Table {
		if strings.EqualFold(name, string(w.Name)) || strings.EqualFold(name, w.App) {
			return w
		}
	}
	return nil
}

// NewRun is the row's run at a scale, over an input, under a variant (the
// zero Variant: plain).
func (w *Workload) NewRun(sc Scale, input []byte, v Variant) Run {
	r := Run{Scale: sc, Variant: v}
	if v.K != 0 {
		r.KCliquesK = v.K
	}
	if w.Seeded {
		r.Centroids = datagen.InitialCentroids(input, sc.KClusters)
	}
	return r
}

// HAMREnv lays the input out for the flowlet side the way the paper's
// deployment had it — split over the nodes' local disks, two files a node.
func (w *Workload) HAMREnv(c *cluster.Cluster, input []byte, r Run) (Env, error) {
	files, err := hamrapps.DistributeLocalText(c, string(w.Name), input, 2*c.NumNodes())
	return Env{Run: r, C: c, Files: files}, err
}

// MREnv writes the input into c's HDFS for a baseline engine tuned by cfg.
func (w *Workload) MREnv(c *cluster.Cluster, cfg mapreduce.Config, input []byte, r Run) (Env, error) {
	e := Env{Run: r, C: c, Eng: mapreduce.NewEngine(c, cfg), Input: "in/" + string(w.Name)}
	return e, c.FS().WriteFile(e.Input, input, -1)
}

// RunHAMR executes the row's flowlet side and returns the last job's result.
func (w *Workload) RunHAMR(e Env) (*core.JobResult, Collect, error) {
	if w.Drive != nil {
		return w.Drive(e)
	}
	g, sink, err := w.Graph(e)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.C.Run(g)
	return res, func() (Output, error) {
		out := Output{}
		if sink != nil {
			for _, kv := range sink.Pairs() {
				if err := out.add(kv.Key, fmt.Sprint(kv.Value)); err != nil {
					return nil, err
				}
			}
		}
		for node := 0; node < e.C.NumNodes(); node++ {
			for _, name := range e.C.Disk(node).List("out/") {
				data, err := e.C.ReadLocalText(node, name)
				if err != nil {
					return nil, err
				}
				if err := out.addLines(data, assignment); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}, err
}

// ---------------------------------------------------------------------------
// What the rows share.

func (e Env) loader() core.Loader { return &hamrapps.LocalTextLoader{Files: e.Files} }

func (e Env) histogram() hamrapps.HistogramOptions {
	return hamrapps.HistogramOptions{Loader: e.loader(), Combiner: e.Combiner, SerializeUpdates: e.Serialize}
}

// localSink writes assignment output to each node's own local disk
// ("output can happen not only in reduce ... but also in map", §3.3) so
// the HAMR side pays the same output-materialization the paper's
// deployment did.
func (e Env) localSink(name string) core.Sink {
	return core.NewFileSink(func(node int) (io.WriteCloser, error) {
		return e.C.Disk(node).Create(fmt.Sprintf("%s-%02d", name, node))
	}, nil)
}

// chain runs jobs one after the other; the answer is the "key<TAB>value"
// lines of the part files the last leaves under "out/", read through line.
func (e Env) chain(line func(k, v string) (string, string), jobs ...mapreduce.Job) (Collect, error) {
	_, err := e.Eng.RunChain(jobs...)
	return func() (Output, error) {
		out := Output{}
		for _, name := range e.C.FS().List("out/") {
			data, err := e.C.FS().ReadFile(name, -1)
			if err != nil {
				return nil, err
			}
			if err := out.addLines(data, line); err != nil {
				return nil, err
			}
		}
		return out, nil
	}, err
}
