package mrapps

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/hamr-go/hamr/internal/apps/kernel"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/mapreduce"
)

// K-Cliques for the Hadoop baseline: "an iterative map-reduce strategy"
// (§4). Each job extends candidate cliques by one vertex. Every job
// re-reads and re-shuffles the whole edge list alongside the candidate
// file, and every reduce task materializes the adjacency of its keys in
// memory (charged against the task heap — the paper's reason Hadoop "runs
// out of memory for larger graphs", §5.2).
//
// Candidates are canonical ascending vertex lists "v1,v2,...,vi" keyed by
// their largest vertex.

// kcJob builds the job that takes i-clique candidates to (i+1)-cliques
// (or, when i == k, validates and outputs final cliques).
//
// Inputs: the edge file plus (for i > 2) the previous candidate file; the
// map tells a line's input by its file (the key), not by its shape.
// Map: edge "u v" -> (u, "E:v"), (v, "E:u"); for i == 2 also the seed
// candidates (max(u,v), "C:min,max"). Candidate line "v1,...,vi" ->
// (vi, "C:v1,...,vi").
func kcJob(name string, edgeInput, candInput, output string, i, k, reduces int) mapreduce.Job {
	inputs := []string{edgeInput}
	if candInput != "" {
		inputs = append(inputs, candInput)
	}
	return mapreduce.Job{
		Name:          name,
		InputPrefixes: inputs,
		Output:        output,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(kv core.KV, out mapreduce.Emitter) error {
				line := kv.Value.(string)
				if candInput != "" && strings.HasPrefix(kv.Key, candInput) {
					// A candidate, from the previous job's "clique\t1" lines.
					clique, _, _ := strings.Cut(line, "\t")
					return out.Emit(core.KV{Key: clique[strings.LastIndexByte(clique, ',')+1:], Value: "C:" + clique})
				}
				e, ok, err := kernel.UndirectedEdge(line)
				if !ok {
					return err
				}
				if err := out.Emit(core.KV{Key: e.U, Value: "E:" + e.V}); err != nil {
					return err
				}
				if err := out.Emit(core.KV{Key: e.V, Value: "E:" + e.U}); err != nil {
					return err
				}
				if i == 2 {
					lo, hi := e.UID, e.VID
					if lo > hi {
						lo, hi = hi, lo
					}
					return out.Emit(core.KV{
						Key:   strconv.FormatInt(hi, 10),
						Value: fmt.Sprintf("C:%d,%d", lo, hi),
					})
				}
				return nil
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(key string, values []any, out mapreduce.Emitter) error {
				// Build this vertex's adjacency in task memory — the heap
				// pressure point of the Hadoop implementation.
				adj := make(map[int64]bool)
				var cands []string
				for _, v := range values {
					s := v.(string)
					switch {
					case strings.HasPrefix(s, "E:"):
						n, err := strconv.ParseInt(s[2:], 10, 64)
						if err != nil {
							return err
						}
						if !adj[n] {
							adj[n] = true
							if err := out.Charge(16); err != nil {
								return err
							}
						}
					case strings.HasPrefix(s, "C:"):
						cands = append(cands, s[2:])
						if err := out.Charge(int64(len(s))); err != nil {
							return err
						}
					default:
						return fmt.Errorf("mrapps: bad kcliques value %q", s)
					}
				}
				sort.Strings(cands)
				for j, cand := range cands {
					// An edge listed twice seeds its 2-clique twice.
					if j > 0 && cand == cands[j-1] {
						continue
					}
					if err := kernel.Extend(cand, adj, k, out.Emit); err != nil {
						return err
					}
				}
				return nil
			})
		},
		// Candidates in the next job are parsed from the "clique\t1" lines
		// the reducers write.
		NumReduces: reduces,
	}
}

// KCliquesMRResult is the outcome of the baseline K-Cliques driver.
type KCliquesMRResult struct {
	Cliques []string
	Result  *mapreduce.Result
}

// RunKCliquesMR finds all k-cliques (k >= 2) with k-1 chained jobs over
// the edge file at `input`, writing intermediates under `work`: job i
// (2 <= i < k) validates the i-clique candidates and extends the valid ones
// to size i+1, and a last job validates the k-clique candidates.
func RunKCliquesMR(e *mapreduce.Engine, fs *hdfs.FileSystem, input, work string, k, reduces int) (*KCliquesMRResult, error) {
	if k < 2 {
		return nil, fmt.Errorf("mrapps: k must be >= 2, got %d", k)
	}
	var jobs []mapreduce.Job
	cand := ""
	for i := 2; i < k; i++ {
		out := fmt.Sprintf("%s/cliques-%02d", work, i+1)
		jobs = append(jobs, kcJob(fmt.Sprintf("kcliques-extend-%d", i), input, cand, out, i, k, reduces))
		cand = out + "/"
	}
	finalOut := fmt.Sprintf("%s/cliques-final", work)
	jobs = append(jobs, kcJob("kcliques-validate", input, cand, finalOut, k, k, reduces))

	res, err := e.RunChain(jobs...)
	if err != nil {
		return nil, err
	}
	var cliques []string
	err = eachOutputLine(fs, finalOut+"/", func(clique, _ string) error {
		cliques = append(cliques, clique)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(cliques)
	return &KCliquesMRResult{Cliques: cliques, Result: res}, nil
}
