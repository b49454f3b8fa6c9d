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

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/mapreduce"
)

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
		return datagen.EachField(kv.Value.(string), func(w string) error {
			return out.Emit(core.KV{Key: w, Value: int64(1)})
		})
	})
}

// HistogramMoviesJob buckets movies by average rating (half stars 1..5).
func HistogramMoviesJob(input, output string, combiner bool, reduces int) mapreduce.Job {
	return countJob("histogram-movies", input, output, combiner, reduces, func(kv core.KV, out mapreduce.Emitter) error {
		rec, ok := datagen.ParseMovie(kv.Value.(string))
		if !ok || len(rec.Ratings) == 0 {
			return nil
		}
		return out.Emit(core.KV{Key: hamrapps.BucketKey(rec.AvgRating()), Value: int64(1)})
	})
}

// HistogramRatingsJob counts individual ratings (five keys). PUMA's
// version runs with a combiner, which keeps Hadoop's shuffle tiny and is
// why it beats HAMR here (§5.2).
func HistogramRatingsJob(input, output string, combiner bool, reduces int) mapreduce.Job {
	return countJob("histogram-ratings", input, output, combiner, reduces, func(kv core.KV, out mapreduce.Emitter) error {
		return datagen.EachRating(kv.Value.(string), func(_ int, r float64) error {
			return out.Emit(core.KV{Key: strconv.Itoa(int(r)), Value: int64(1)})
		})
	})
}

// NaiveBayesJobs builds the two chained Mahout-style training jobs
// (§4: "replace two jobs in Hadoop version"):
//
//	job 1: (label, words) -> per-label feature vectors; emits
//	       per-(label,feature) weights and per-label totals.
//	job 2: per-feature weight sums across labels.
//
// Final output keys match the HAMR implementation: "labelweight|<label>"
// and "featureweight|<feature>".
func NaiveBayesJobs(input, mid, output string, reduces int) []mapreduce.Job {
	job1 := mapreduce.Job{
		Name:          "nb-vectorsum",
		InputPrefixes: []string{input},
		Output:        mid,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(kv core.KV, out mapreduce.Emitter) error {
				line := kv.Value.(string)
				tab := strings.IndexByte(line, '\t')
				if tab <= 0 {
					return nil
				}
				label := line[:tab]
				return datagen.EachField(line[tab+1:], func(w string) error {
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
				line := kv.Value.(string)
				tab := strings.IndexByte(line, '\t')
				if tab <= 0 {
					return nil
				}
				lf := line[:tab]
				var n int64
				if _, err := fmt.Sscanf(line[tab+1:], "%d", &n); err != nil {
					return fmt.Errorf("mrapps: bad weight line %q: %w", line, err)
				}
				bar := strings.IndexByte(lf, '|')
				if bar <= 0 {
					return nil
				}
				label, feature := lf[:bar], lf[bar+1:]
				if err := out.Emit(core.KV{Key: "featureweight|" + feature, Value: n}); err != nil {
					return err
				}
				return out.Emit(core.KV{Key: "labelweight|" + label, Value: n})
			})
		},
		NewReducer:  sumReducer,
		NewCombiner: sumReducer,
		NumReduces:  reduces,
	}
	return []mapreduce.Job{job1, job2}
}
