package main

import (
	"fmt"
	"io"
	"strings"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/bench"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/mapreduce"
)

// sizes fixes every workload's input size. The defaults are multiples of
// bench.SmallScale measured to keep one workload at 12-25 s for 20 pairs
// on two cores; tests use bench.TinyScale.
type sizes struct {
	WordCountLines, WordCountVocab  int
	HistogramMovies, HistogramUsers int
	KMeansMovies, KMeansUsers       int
	KClusters                       int
	PageRankPages, PageRankIters    int
	SortRows                        int
	Reduces                         int
}

func defaultSizes() sizes {
	s := bench.SmallScale()
	return sizes{
		WordCountLines: 2 * s.WordCountLines, WordCountVocab: s.WordCountVocab,
		HistogramMovies: 2 * s.HistogramMovies, HistogramUsers: s.HistogramUsers,
		// 0.6x keeps 20 pairs under 15 s. Not a multiple of 4k: InitialCentroids takes every
		// (movies/k)-th record and movie i belongs to latent cluster i%k,
		// so 36 004 seeds one centroid per latent cluster where 36 000
		// would seed all four from cluster 0. See the kmeans workload.
		KMeansMovies: 36004, KMeansUsers: s.KMeansUsers, KClusters: s.KClusters,
		PageRankPages: 4 * s.PageRankPages, PageRankIters: s.PageRankIters,
		SortRows: 200000,
		Reduces:  s.Reduces,
	}
}

func tinySizes() sizes {
	s := bench.TinyScale()
	return sizes{
		WordCountLines: s.WordCountLines, WordCountVocab: s.WordCountVocab,
		HistogramMovies: s.HistogramMovies, HistogramUsers: s.HistogramUsers,
		KMeansMovies: s.KMeansMovies, KMeansUsers: s.KMeansUsers, KClusters: s.KClusters,
		PageRankPages: s.PageRankPages, PageRankIters: s.PageRankIters,
		SortRows: 4000,
		Reduces:  s.Reduces,
	}
}

// input is one workload's generated data; the program under test only
// ever sees these bytes, never the seed.
type input struct {
	data      []byte
	centroids []hamrapps.Centroid // kmeans
	refAssign string              // kmeans: digest of the sequential reference assignment
	records   int64               // sort_spill: rows generated
}

// call is one prepared engine invocation: run is the timed window, digest
// reads the result back afterwards (outside it).
type call struct {
	run    func() error
	digest func() (string, error)
}

// workload is one Table-2-shaped row: the same job on both engines.
type workload struct {
	Name string
	Why  string
	// Paper is the Table 2 row the workload reproduces ("" = none).
	Paper bench.Benchmark
	gen   func(seed int64, sz sizes) *input
	// partsPerNode is how many node-local files the HAMR input is split
	// into on each node; 0 means bench.Harness's 2.
	partsPerNode int
	// tune adjusts the default cluster/engine configuration (sort_spill's
	// small memory budgets); nil keeps bench.DefaultSpec as is.
	tune func(o *cluster.Options, m *mapreduce.Config)
	hamr func(c *cluster.Cluster, in *input, files map[int][]string, sz sizes) (call, error)
	mr   func(c *cluster.Cluster, eng *mapreduce.Engine, in *input, path string, sz sizes) (call, error)
	// guard rejects a run that measured something other than intended.
	guard func(hamr, mr map[string]float64, nodes int) error
}

var workloads = []workload{
	{
		Name:  "wordcount",
		Why:   "many small Zipfian KVs: HAMR emit/bin/coalesce/shuffle/partial-reduce vs MR sort-buffer/spill/combiner; the paper's parity row",
		Paper: bench.WordCount,
		gen: func(seed int64, sz sizes) *input {
			return &input{data: datagen.Text(datagen.TextConfig{
				Seed: seed, Vocabulary: sz.WordCountVocab, Lines: sz.WordCountLines,
			})}
		},
		hamr: func(c *cluster.Cluster, in *input, files map[int][]string, sz sizes) (call, error) {
			g, sink, err := hamrapps.BuildWordCount(hamrapps.WordCountOptions{
				Loader: &hamrapps.LocalTextLoader{Files: files},
			})
			return countCall(c, g, sink), err
		},
		mr: func(c *cluster.Cluster, eng *mapreduce.Engine, in *input, path string, sz sizes) (call, error) {
			return mrCountCall(c, eng, mrapps.WordCountJob(path, "out", true, sz.Reduces)), nil
		},
	},
	{
		Name:  "histogram_ratings",
		Why:   "five hot keys: every partial-reduce update lands on a few stripes and serialises; the paper's deliberate inversion (HAMR loses)",
		Paper: bench.HistogramRatings,
		gen: func(seed int64, sz sizes) *input {
			return &input{data: datagen.Movies(datagen.MoviesConfig{
				Seed: seed, Movies: sz.HistogramMovies, Users: sz.HistogramUsers, Clusters: histogramLatentClusters,
			})}
		},
		hamr: func(c *cluster.Cluster, in *input, files map[int][]string, sz sizes) (call, error) {
			g, sink, err := hamrapps.BuildHistogramRatings(hamrapps.HistogramOptions{
				Loader: &hamrapps.LocalTextLoader{Files: files},
			})
			return countCall(c, g, sink), err
		},
		mr: func(c *cluster.Cluster, eng *mapreduce.Engine, in *input, path string, sz sizes) (call, error) {
			return mrCountCall(c, eng, mrapps.HistogramRatingsJob(path, "out", true, sz.Reduces)), nil
		},
	},
	{
		Name:  "kmeans",
		Why:   "largest input, CPU-heavy mapper, positions shipped instead of records: hdfs/storage reads and map CPU dominate, shuffle is tiny",
		Paper: bench.KMeans,
		gen:   genKMeans,
		// Seed-steadiness, not realism: the job re-reads each new centroid's
		// record from the start of its part file, so with 2 parts per node
		// the HAMR row swings 25 % with where the medoids happen to lie; 16
		// parts per node bound the re-read. And the MR reducer that owns the
		// largest cluster merges from disk once it passes heap/2 and dies
		// past heap — cliffs the largest cluster's size crosses with the
		// seed (mr_modeled_s 1.3 s or 2.4 s) — so the reduce heap is raised
		// clear of both.
		partsPerNode: 16,
		tune: func(o *cluster.Options, m *mapreduce.Config) {
			m.ReduceHeapBytes = 16 << 20
		},
		hamr: hamrKMeans,
		mr: func(c *cluster.Cluster, eng *mapreduce.Engine, in *input, path string, sz sizes) (call, error) {
			job := mrapps.KMeansJob(path, "out", in.centroids, sz.Reduces)
			return call{
				run: func() error { _, err := eng.Run(job); return err },
				digest: func() (string, error) {
					var d multiset
					err := eachOutputLine(c, "out/", func(_, line string) error { d.add(line); return nil })
					return d.String(), err
				},
			}, nil
		},
	},
	{
		Name:  "pagerank",
		Why:   "iterative chain over little data: per-job fixed costs dominate (MR job/task startup, HDFS round trips, YARN; HAMR submit path, kvstore)",
		Paper: bench.PageRank,
		gen: func(seed int64, sz sizes) *input {
			return &input{data: datagen.WebGraph(datagen.WebGraphConfig{Seed: seed, Pages: sz.PageRankPages})}
		},
		hamr: func(c *cluster.Cluster, in *input, files map[int][]string, sz sizes) (call, error) {
			var res *hamrapps.PageRankResult
			return call{
				run: func() (err error) {
					res, err = hamrapps.RunPageRank(c, &hamrapps.LocalTextLoader{Files: files}, 0, sz.PageRankIters)
					return err
				},
				digest: func() (string, error) { return rankDigest(res.Ranks), nil },
			}, nil
		},
		mr: func(c *cluster.Cluster, eng *mapreduce.Engine, in *input, path string, sz sizes) (call, error) {
			var res *mrapps.PageRankMRResult
			return call{
				run: func() (err error) {
					res, err = mrapps.RunPageRankMR(eng, c.FS(), path, "work", sz.PageRankIters, sz.Reduces)
					return err
				},
				digest: func() (string, error) { return rankDigest(res.Ranks), nil },
			}, nil
		},
	},
	{
		Name: "sort_spill",
		Why:  "TeraSort-style identity sort under small memory budgets: the only workload where extsort + storage do most of the work, on both engines",
		gen:  genSortRows,
		tune: func(o *cluster.Options, m *mapreduce.Config) {
			// Every HAMR node receives ~1.4 MiB of reduce input and every
			// MR map task emits ~0.5 MiB; these budgets make both spill
			// many runs, MR merge them in several passes, and MR reducers
			// merge from disk.
			o.Core.MemoryBudget = 128 << 10
			m.SortBufferBytes = 64 << 10
			m.MergeFactor = 3
			m.ReduceHeapBytes = 512 << 10
		},
		hamr: hamrSort,
		mr:   mrSort,
		guard: func(hamr, mr map[string]float64, nodes int) error {
			if got := hamr["hamr.core.reduce_spills"]; got < float64(8*nodes) {
				return fmt.Errorf("hamr.core.reduce_spills = %g, want >= 8 per node (%d)", got, 8*nodes)
			}
			if got := mr["mr.mapreduce.merge_passes"]; got < 2 {
				return fmt.Errorf("mr.mapreduce.merge_passes = %g, want >= 2", got)
			}
			return nil
		},
	},
}

// histogramLatentClusters spreads histogram_ratings' movies over many
// latent taste profiles. The hot node's load follows the share of each
// rating value, which with datagen's default 4 profiles swings 5 % with
// the seed; 512 average it out (0.4 %) without changing the five-key shape.
const histogramLatentClusters = 512

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// countCall runs a graph whose sink holds (key, int64 count) pairs.
func countCall(c *cluster.Cluster, g *core.Graph, sink *core.CollectSink) call {
	return call{
		run: func() error { _, err := c.Run(g); return err },
		digest: func() (string, error) {
			counts := map[string]int64{}
			for _, kv := range sink.Pairs() {
				counts[kv.Key] += kv.Value.(int64)
			}
			return countDigest(counts), nil
		},
	}
}

// mrCountCall runs a job whose part files hold "key\tcount" lines.
func mrCountCall(c *cluster.Cluster, eng *mapreduce.Engine, job mapreduce.Job) call {
	return call{
		run: func() error { _, err := eng.Run(job); return err },
		digest: func() (string, error) {
			counts := map[string]int64{}
			err := eachOutputLine(c, job.Output+"/", func(_, line string) error {
				k, v, ok := strings.Cut(line, "\t")
				var n int64
				if _, err := fmt.Sscan(v, &n); !ok || err != nil {
					return fmt.Errorf("bad output line %q", line)
				}
				counts[k] += n
				return nil
			})
			return countDigest(counts), err
		},
	}
}

// eachOutputLine visits every non-empty line of the HDFS files under
// prefix, file by file in name order.
func eachOutputLine(c *cluster.Cluster, prefix string, fn func(file, line string) error) error {
	for _, f := range c.FS().List(prefix) {
		data, err := c.FS().ReadFile(f, -1)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			if err := fn(f, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- kmeans ----

func genKMeans(seed int64, sz sizes) *input {
	in := &input{data: datagen.Movies(datagen.MoviesConfig{
		Seed: seed, Movies: sz.KMeansMovies, Users: sz.KMeansUsers, Clusters: sz.KClusters,
		// Every movie carries the same number of ratings (the middle of
		// datagen's default 5..30). The mapper's cost per record follows
		// the sizes of the four initial centroids, which are records too:
		// left at 5..30 they move both engines' CPU time 8 % with the seed.
		MinRatings: 17, MaxRatings: 17,
	})}
	in.centroids = datagen.InitialCentroids(in.data, sz.KClusters)
	// The sequential reference both engines' assignments must reproduce.
	var ref multiset
	for _, line := range strings.Split(string(in.data), "\n") {
		rec, ok := datagen.ParseMovie(line)
		if !ok || len(rec.Ratings) == 0 {
			continue
		}
		best, _ := hamrapps.BestCluster(rec, in.centroids)
		ref.add(fmt.Sprintf("%d\t%s", best, rec.ID))
	}
	in.refAssign = ref.String()
	return in
}

const kmeansAssignPrefix = "out/kmeans-assign"

func hamrKMeans(c *cluster.Cluster, in *input, files map[int][]string, sz sizes) (call, error) {
	// Assignments go to each node's own disk, as the paper's deployment
	// (and bench.Harness) materialises them.
	assign := core.NewFileSink(func(node int) (io.WriteCloser, error) {
		return c.Disk(node).Create(fmt.Sprintf("%s-%02d", kmeansAssignPrefix, node))
	}, nil)
	g, sinks, err := hamrapps.BuildKMeans(hamrapps.KMeansOptions{
		Files: files, Centroids: in.centroids, AssignmentSink: assign,
	})
	if err != nil {
		return call{}, err
	}
	return call{
		run: func() error { _, err := c.Run(g); return err },
		digest: func() (string, error) {
			var got multiset
			for node := 0; node < c.NumNodes(); node++ {
				for _, name := range c.Disk(node).List(kmeansAssignPrefix) {
					data, err := c.ReadLocalText(node, name)
					if err != nil {
						return "", err
					}
					for _, line := range strings.Split(string(data), "\n") {
						if line != "" {
							got.add(line)
						}
					}
				}
			}
			if got.String() != in.refAssign {
				return "", fmt.Errorf("kmeans assignments %s differ from the sequential reference %s", got, in.refAssign)
			}
			var d multiset
			for _, kv := range sinks.Centroids.Pairs() {
				d.add(kv.Key + "\t" + kv.Value.(string))
			}
			return d.String(), nil
		},
	}, nil
}

// ---- sort_spill ----

// genSortRows builds TeraSort-style rows (modelled on cmd/sortprobe): a
// uniform 10-hex-digit key and a fixed-width payload, one per line.
func genSortRows(seed int64, sz sizes) *input {
	var sb strings.Builder
	sb.Grow(sz.SortRows * 28)
	state := uint64(seed)*0x9E3779B97F4A7C15 | 1
	for i := 0; i < sz.SortRows; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		fmt.Fprintf(&sb, "%010x %08d-payload\n", state&0xFFFFFFFFFF, i)
	}
	return &input{data: []byte(sb.String()), records: int64(sz.SortRows)}
}

type teraCut struct{}

func (teraCut) Map(kv core.KV, ctx core.Context) error {
	k, v, _ := strings.Cut(kv.Value.(string), " ")
	return ctx.Emit(core.KV{Key: k, Value: v})
}

type identityReduce struct{}

func (identityReduce) Reduce(key string, values []any, ctx core.Context) error {
	for _, v := range values {
		if err := ctx.Emit(core.KV{Key: key, Value: v}); err != nil {
			return err
		}
	}
	return nil
}

func hamrSort(c *cluster.Cluster, in *input, files map[int][]string, sz sizes) (call, error) {
	g := core.NewGraph("sort_spill")
	sink := core.NewCollectSink()
	ld, err := g.AddLoader("load", &hamrapps.LocalTextLoader{Files: files})
	if err != nil {
		return call{}, err
	}
	mp, err := g.AddMap("cut", teraCut{})
	if err != nil {
		return call{}, err
	}
	rd, err := g.AddReduce("order", identityReduce{})
	if err != nil {
		return call{}, err
	}
	sk, err := g.AddSink("out", sink)
	if err != nil {
		return call{}, err
	}
	if err := g.Connect(ld, mp, core.WithRouting(core.RouteLocal)); err != nil {
		return call{}, err
	}
	if err := g.Connect(mp, rd, core.WithRouting(core.RouteShuffle)); err != nil {
		return call{}, err
	}
	if err := g.Connect(rd, sk); err != nil {
		return call{}, err
	}
	return call{
		run: func() error { _, err := c.Run(g); return err },
		digest: func() (string, error) {
			var d multiset
			for _, kv := range sink.Pairs() {
				d.add(kv.Key + "\t" + kv.Value.(string))
			}
			if d.n != in.records {
				return "", fmt.Errorf("sort_spill: %d records out, %d in", d.n, in.records)
			}
			return d.String(), nil
		},
	}, nil
}

func mrSort(c *cluster.Cluster, eng *mapreduce.Engine, in *input, path string, sz sizes) (call, error) {
	job := mapreduce.Job{
		Name:          "sort_spill",
		InputPrefixes: []string{path},
		Output:        "out",
		NumReduces:    sz.Reduces,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(kv core.KV, out mapreduce.Emitter) error {
				k, v, _ := strings.Cut(kv.Value.(string), " ")
				return out.Emit(core.KV{Key: k, Value: v})
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, out mapreduce.Emitter) error {
				for _, v := range values {
					if err := out.Emit(core.KV{Key: key, Value: v}); err != nil {
						return err
					}
				}
				return nil
			})
		},
	}
	return call{
		run: func() error { _, err := eng.Run(job); return err },
		digest: func() (string, error) {
			var d multiset
			lastFile, lastKey := "", ""
			err := eachOutputLine(c, "out/", func(file, line string) error {
				k, _, _ := strings.Cut(line, "\t")
				if file == lastFile && k < lastKey {
					return fmt.Errorf("sort_spill: %s is not key-ordered at %q", file, k)
				}
				lastFile, lastKey = file, k
				d.add(line)
				return nil
			})
			if err == nil && d.n != in.records {
				err = fmt.Errorf("sort_spill: %d records out, %d in", d.n, in.records)
			}
			return d.String(), err
		},
	}, nil
}
