// Package mrapps implements the paper's eight benchmarks for the Hadoop
// baseline engine, following the PUMA / HiBench implementations they were
// measured with (§4): WordCount, HistogramMovies, HistogramRatings,
// NaiveBayes (two chained jobs), K-Means (one job per iteration),
// Classification, PageRank (two chained jobs per iteration) and K-Cliques
// (one job per clique size).
package mrapps

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/hamr-go/hamr/internal/apps/kernel"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/transport"
)

// eachOutputLine calls fn with the key and value of every "key<TAB>value"
// line of the part files under prefix.
func eachOutputLine(fs *hdfs.FileSystem, prefix string, fn func(key, value string) error) error {
	for _, f := range fs.List(prefix) {
		data, err := fs.ReadFile(f, transport.NodeID(-1))
		if err != nil {
			return err
		}
		for rest := string(data); rest != ""; {
			var line string
			line, rest, _ = strings.Cut(rest, "\n")
			if k, v, ok := strings.Cut(line, "\t"); ok && k != "" {
				if err := fn(k, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sumReducer adds int64 counts; it doubles as the combiner.
func sumReducer() mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(key string, values []any, out mapreduce.Emitter) error {
		var total int64
		for _, v := range values {
			total += v.(int64)
		}
		return out.Emit(core.KV{Key: key, Value: total})
	})
}

// countJob is the shape the three counting benchmarks share: a mapper that
// emits (key, 1), the sum as reducer and, when asked for, as combiner too.
func countJob(name, input, output string, combiner bool, reduces int, mapper mapreduce.MapperFunc) mapreduce.Job {
	j := mapreduce.Job{
		Name:          name,
		InputPrefixes: []string{input},
		Output:        output,
		NewMapper:     func() mapreduce.Mapper { return mapper },
		NewReducer:    sumReducer,
		NumReduces:    reduces,
	}
	if combiner {
		j.NewCombiner = sumReducer
	}
	return j
}

// WordCountJob builds the PUMA WordCount job. The combiner is what lets
// Hadoop stay within 1.2x of HAMR on this benchmark (§5.2).
func WordCountJob(input, output string, combiner bool, reduces int) mapreduce.Job {
	return countJob("wordcount", input, output, combiner, reduces, func(kv core.KV, out mapreduce.Emitter) error {
		return kernel.Words(kv.Value.(string), out.Emit)
	})
}

// HistogramMoviesJob buckets movies by average rating (half stars 1..5).
func HistogramMoviesJob(input, output string, combiner bool, reduces int) mapreduce.Job {
	return countJob("histogram-movies", input, output, combiner, reduces, func(kv core.KV, out mapreduce.Emitter) error {
		return kernel.MovieBucket(kv.Value.(string), out.Emit)
	})
}

// HistogramRatingsJob counts individual ratings (five keys). PUMA's
// version runs with a combiner, which keeps Hadoop's shuffle tiny and is
// why it beats HAMR here (§5.2).
func HistogramRatingsJob(input, output string, combiner bool, reduces int) mapreduce.Job {
	return countJob("histogram-ratings", input, output, combiner, reduces, func(kv core.KV, out mapreduce.Emitter) error {
		return kernel.Ratings(kv.Value.(string), out.Emit)
	})
}

// NaiveBayesJobs builds the two chained Mahout-style training jobs
// (§4: "replace two jobs in Hadoop version"):
//
//	job 1: (label, words) -> per-label feature vectors; emits
//	       per-(label,feature) weights and per-label totals.
//	job 2: per-feature weight sums across labels.
//
// Final output keys match the HAMR implementation: kernel.LabelWeight and
// kernel.FeatureWeight.
func NaiveBayesJobs(input, mid, output string, reduces int) []mapreduce.Job {
	job1 := mapreduce.Job{
		Name:          "nb-vectorsum",
		InputPrefixes: []string{input},
		Output:        mid,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(kv core.KV, out mapreduce.Emitter) error {
				label, body, ok := kernel.Document(kv.Value.(string))
				if !ok {
					return nil
				}
				return datagen.EachField(body, func(w string) error {
					return out.Emit(core.KV{Key: label + "|" + w, Value: int64(1)})
				})
			})
		},
		NewReducer:  sumReducer,
		NewCombiner: sumReducer,
		NumReduces:  reduces,
	}
	job2 := mapreduce.Job{
		Name:          "nb-weightsum",
		InputPrefixes: []string{mid + "/"},
		Output:        output,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(kv core.KV, out mapreduce.Emitter) error {
				// Input lines: "label|feature\tcount".
				lf, count, tab := strings.Cut(kv.Value.(string), "\t")
				label, feature, bar := strings.Cut(lf, "|")
				if !tab || !bar || label == "" {
					return nil
				}
				n, err := strconv.ParseInt(count, 10, 64)
				if err != nil {
					return fmt.Errorf("mrapps: bad weight line %q: %w", kv.Value, err)
				}
				if err := out.Emit(core.KV{Key: kernel.FeatureWeight(feature), Value: n}); err != nil {
					return err
				}
				return out.Emit(core.KV{Key: kernel.LabelWeight(label), Value: n})
			})
		},
		NewReducer:  sumReducer,
		NewCombiner: sumReducer,
		NumReduces:  reduces,
	}
	return []mapreduce.Job{job1, job2}
}
