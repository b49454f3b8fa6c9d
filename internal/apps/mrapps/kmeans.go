package mrapps

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
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
// Output lines: "<cluster>\t<centroid>" with hamrapps.FormatCentroid's
// encoding, so results are directly comparable with the flowlet version.
func KMeansJob(input, output string, centroids []hamrapps.Centroid, reduces int) mapreduce.Job {
	return mapreduce.Job{
		Name:          "kmeans",
		InputPrefixes: []string{input},
		Output:        output,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(kv core.KV, out mapreduce.Emitter) error {
				rec, ok := datagen.ParseMovie(kv.Value.(string))
				if !ok || len(rec.Ratings) == 0 {
					return nil
				}
				best, sim := hamrapps.BestCluster(rec, centroids)
				// The whole record crosses the shuffle.
				if err := out.Charge(kv.Size()); err != nil {
					return err
				}
				return out.Emit(core.KV{
					Key:   strconv.Itoa(best),
					Value: hamrapps.FormatSimilarity(sim) + ";" + kv.Value.(string),
				})
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, out mapreduce.Emitter) error {
				type member struct {
					sim  float64
					id   string
					line string
				}
				recs := make([]member, 0, len(values))
				for _, v := range values {
					s := v.(string)
					i := strings.IndexByte(s, ';')
					if i < 0 {
						return fmt.Errorf("mrapps: bad kmeans record %q", s)
					}
					sim, err := strconv.ParseFloat(s[:i], 64)
					if err != nil {
						return err
					}
					line := s[i+1:]
					rec, ok := datagen.ParseMovie(line)
					if !ok {
						return fmt.Errorf("mrapps: unparsable member %q", line)
					}
					recs = append(recs, member{sim: sim, id: rec.ID, line: line})
				}
				if len(recs) == 0 {
					return nil
				}
				// Median-similarity medoid, ordered exactly like the
				// flowlet version: (similarity, movie id).
				sort.Slice(recs, func(i, j int) bool {
					if recs[i].sim != recs[j].sim {
						return recs[i].sim < recs[j].sim
					}
					return recs[i].id < recs[j].id
				})
				chosen := recs[hamrapps.MedianIndex(len(recs))]
				rec, _ := datagen.ParseMovie(chosen.line)
				return out.Emit(core.KV{Key: key, Value: hamrapps.FormatCentroid(rec.Vector())})
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
func ClassificationJob(input, output string, centroids []hamrapps.Centroid, reduces int, materialize bool) mapreduce.Job {
	return mapreduce.Job{
		Name:          "classification",
		InputPrefixes: []string{input},
		Output:        output,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(kv core.KV, out mapreduce.Emitter) error {
				rec, ok := datagen.ParseMovie(kv.Value.(string))
				if !ok || len(rec.Ratings) == 0 {
					return nil
				}
				best, _ := hamrapps.BestCluster(rec, centroids)
				if err := out.Charge(kv.Size()); err != nil {
					return err
				}
				return out.Emit(core.KV{Key: strconv.Itoa(best), Value: kv.Value})
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
