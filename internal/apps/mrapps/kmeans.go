package mrapps

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/hamr-go/hamr/internal/apps/kernel"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/mapreduce"
)

// KMeansJob builds the PUMA single-iteration K-Means job. Unlike the
// flowlet version (which ships only positions, §3.3), the Hadoop version
// shuffles the *full movie records* to the reducers: map assigns each
// movie to its most-similar centroid and emits (cluster, "sim;record");
// reduce picks the most-representative record as the new centroid — the
// big intermediate data volume the paper attributes Hadoop's K-Means cost
// to (§4: "this process causes big disk IO and network overhead").
//
// Output lines: "<cluster>\t<centroid>" with kernel.FormatCentroid's
// encoding, so results are directly comparable with the flowlet version.
func KMeansJob(input, output string, centroids []kernel.Centroid, reduces int) mapreduce.Job {
	return mapreduce.Job{
		Name:          "kmeans",
		InputPrefixes: []string{input},
		Output:        output,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(kv core.KV, out mapreduce.Emitter) error {
				_, cluster, sim, ok := kernel.Assign(kv.Value.(string), centroids)
				if !ok {
					return nil
				}
				// The whole record crosses the shuffle.
				if err := out.Charge(kv.Size()); err != nil {
					return err
				}
				var buf [32]byte
				return out.Emit(core.KV{Key: cluster, Value: string(kernel.AppendSimilarity(buf[:0], sim)) + ";" + kv.Value.(string)})
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, out mapreduce.Emitter) error {
				if len(values) == 0 {
					return nil
				}
				ms := make([]kernel.Member, len(values))
				for i, v := range values {
					simStr, line, ok := strings.Cut(v.(string), ";")
					if !ok {
						return fmt.Errorf("mrapps: bad kmeans record %q", v)
					}
					sim, err := strconv.ParseFloat(simStr, 64)
					if err != nil {
						return err
					}
					rec, ok := datagen.ParseMovie(line)
					if !ok {
						return fmt.Errorf("mrapps: unparsable member %q", line)
					}
					ms[i] = kernel.Member{Sim: sim, ID: rec.ID, Ref: line}
				}
				centroid, _ := kernel.CentroidOf(kernel.Medoid(ms).Ref)
				return out.Emit(core.KV{Key: key, Value: centroid})
			})
		},
		NumReduces: reduces,
	}
}

// ClassificationJob builds the PUMA Classification job: fixed centroids,
// map assigns each movie and emits (cluster, full record) — the whole
// dataset crosses the sort/spill path and the shuffle, exactly the cost
// the flowlet version's local identifier-passing avoids (§3.3). With
// materialize set the reducers write the grouped records to HDFS (the
// PUMA behaviour); otherwise they emit per-cluster counts (used by the
// differential tests for cross-engine comparison).
func ClassificationJob(input, output string, centroids []kernel.Centroid, reduces int, materialize bool) mapreduce.Job {
	return mapreduce.Job{
		Name:          "classification",
		InputPrefixes: []string{input},
		Output:        output,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(kv core.KV, out mapreduce.Emitter) error {
				_, cluster, _, ok := kernel.Assign(kv.Value.(string), centroids)
				if !ok {
					return nil
				}
				if err := out.Charge(kv.Size()); err != nil {
					return err
				}
				return out.Emit(core.KV{Key: cluster, Value: kv.Value})
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, out mapreduce.Emitter) error {
				if !materialize {
					return out.Emit(core.KV{Key: key, Value: int64(len(values))})
				}
				for _, v := range values {
					if err := out.Emit(core.KV{Key: key, Value: v}); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NumReduces: reduces,
	}
}
