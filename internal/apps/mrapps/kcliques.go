package mrapps

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/transport"
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
// Inputs: the edge file plus (for i > 2) the previous candidate file.
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
				line := strings.TrimSpace(kv.Value.(string))
				if line == "" {
					return nil
				}
				if strings.ContainsRune(line, ',') || !strings.ContainsRune(line, ' ') {
					// Candidate line "v1,...,vi" (possibly via part file
					// "clique\t1" from the previous job's output).
					if tab := strings.IndexByte(line, '\t'); tab > 0 {
						line = line[:tab]
					}
					members := strings.Split(line, ",")
					return out.Emit(core.KV{Key: members[len(members)-1], Value: "C:" + line})
				}
				f := strings.Fields(line)
				if len(f) != 2 {
					return fmt.Errorf("mrapps: bad edge line %q", line)
				}
				u, err := strconv.ParseInt(f[0], 10, 64)
				if err != nil {
					return err
				}
				v, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil {
					return err
				}
				if u == v {
					return nil
				}
				if err := out.Emit(core.KV{Key: f[0], Value: "E:" + f[1]}); err != nil {
					return err
				}
				if err := out.Emit(core.KV{Key: f[1], Value: "E:" + f[0]}); err != nil {
					return err
				}
				if i == 2 {
					lo, hi := u, v
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
				newest, err := strconv.ParseInt(key, 10, 64)
				if err != nil {
					return err
				}
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
				for _, cand := range cands {
					members := strings.Split(cand, ",")
					valid := true
					for _, m := range members[:len(members)-1] {
						mv, err := strconv.ParseInt(m, 10, 64)
						if err != nil {
							return err
						}
						if !adj[mv] {
							valid = false
							break
						}
					}
					if !valid {
						continue
					}
					if i == k {
						if err := out.Emit(core.KV{Key: cand, Value: int64(1)}); err != nil {
							return err
						}
						continue
					}
					var exts []int64
					for n := range adj {
						if n > newest {
							exts = append(exts, n)
						}
					}
					sort.Slice(exts, func(a, b int) bool { return exts[a] < exts[b] })
					for _, n := range exts {
						next := cand + "," + strconv.FormatInt(n, 10)
						if err := out.Emit(core.KV{Key: next, Value: int64(1)}); err != nil {
							return err
						}
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

// RunKCliquesMR finds all k-cliques (k >= 3) with k-2 chained jobs over
// the edge file at `input`, writing intermediates under `work`.
func RunKCliquesMR(e *mapreduce.Engine, fs *hdfs.FileSystem, input, work string, k, reduces int) (*KCliquesMRResult, error) {
	if k < 3 {
		return nil, fmt.Errorf("mrapps: k must be >= 3, got %d", k)
	}
	var jobs []mapreduce.Job
	cand := ""
	var finalOut string
	for i := 2; i < k; i++ {
		out := fmt.Sprintf("%s/cliques-%02d", work, i+1)
		// Job taking i-cliques to (i+1)-cliques; the last job (i == k-1)
		// emits validated k-cliques because extension + validation happen
		// in the same reduce for i+1 == k... extension happens at size i,
		// validation of the extended clique at size i+1, so we need one
		// final validation-only job.
		jobs = append(jobs, kcJob(fmt.Sprintf("kcliques-extend-%d", i), input, cand, out, i, k, reduces))
		cand = out + "/"
		finalOut = out
	}
	// Final validation job: candidates of size k, validate only.
	out := fmt.Sprintf("%s/cliques-final", work)
	jobs = append(jobs, kcJob("kcliques-validate", input, cand, out, k, k, reduces))
	finalOut = out

	res, err := e.RunChain(jobs...)
	if err != nil {
		return nil, err
	}
	var cliques []string
	for _, f := range fs.List(finalOut + "/") {
		data, err := fs.ReadFile(f, transport.NodeID(-1))
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			if tab := strings.IndexByte(line, '\t'); tab > 0 {
				line = line[:tab]
			}
			cliques = append(cliques, line)
		}
	}
	sort.Strings(cliques)
	return &KCliquesMRResult{Cliques: cliques, Result: res}, nil
}
