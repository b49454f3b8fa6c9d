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

// PageRank for the Hadoop baseline: two chained jobs per iteration (§4:
// "Hadoop version uses two jobs to implement one iteration"), with all
// intermediate state — adjacency lists and ranks — materialized in HDFS
// between jobs and between iterations. The edge lines and the rank rule
// are the flowlet version's (kernel.EdgeLine, kernel.Share, kernel.Rank):
// a page's every edge line carries a share, and pages keep rank 1.0 until
// they receive contributions.
//
// Line formats in intermediate files:
//
//	"src dst"            raw edge (iteration 1 input)
//	"page\tA:d1,d2,..."  adjacency carried between iterations
//	"page\tR:rank"       current rank
//	"page\tC:v"          one contribution (between job 1 and job 2)

// prMap is the map of every job that reads the chain's own "page\tvalue"
// lines: each goes to its page.
func prMap(kv core.KV, out mapreduce.Emitter) error {
	line := kv.Value.(string)
	if tab := strings.IndexByte(line, '\t'); tab > 0 {
		return out.Emit(core.KV{Key: line[:tab], Value: line[tab+1:]})
	}
	return fmt.Errorf("mrapps: bad pagerank line %q", line)
}

// prEdgeMap is the first join's map, the one job that reads raw edges: an
// edge line (kernel.EdgeLine) goes to its source as (src, "E:dst").
func prEdgeMap(kv core.KV, out mapreduce.Emitter) error {
	src, dst, ok, err := kernel.EdgeLine(kv.Value.(string))
	if !ok {
		return err
	}
	return out.Emit(core.KV{Key: src, Value: "E:" + dst})
}

// prJoinJob is job 1: join ranks with adjacency and emit contributions,
// passing the adjacency through. m reads its input: raw edges in the first
// iteration, the previous iteration's ranks and adjacency after it.
func prJoinJob(input, output string, reduces int, m mapreduce.MapperFunc) mapreduce.Job {
	return mapreduce.Job{
		Name:          "pagerank-join",
		InputPrefixes: []string{input},
		Output:        output,
		NewMapper:     func() mapreduce.Mapper { return m },
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(page string, values []any, out mapreduce.Emitter) error {
				rank := 1.0
				var dsts []string
				for _, v := range values {
					s := v.(string)
					switch {
					case strings.HasPrefix(s, "E:"):
						dsts = append(dsts, s[2:])
					case strings.HasPrefix(s, "A:"):
						if s != "A:" {
							dsts = append(dsts, strings.Split(s[2:], ",")...)
						}
					case strings.HasPrefix(s, "R:"):
						r, err := strconv.ParseFloat(s[2:], 64)
						if err != nil {
							return err
						}
						rank = r
					case strings.HasPrefix(s, "C:"):
						// Stray contribution from a malformed chain; ignore.
					default:
						return fmt.Errorf("mrapps: bad pagerank value %q", s)
					}
				}
				sort.Strings(dsts)
				if err := out.Charge(int64(len(dsts) * 8)); err != nil {
					return err
				}
				// Carry the graph and the current rank forward.
				if err := out.Emit(core.KV{Key: page, Value: "A:" + strings.Join(dsts, ",")}); err != nil {
					return err
				}
				if err := out.Emit(core.KV{Key: page, Value: fmt.Sprintf("R:%g", rank)}); err != nil {
					return err
				}
				if len(dsts) == 0 {
					return nil
				}
				contrib := kernel.Share(rank, len(dsts))
				for _, d := range dsts {
					if err := out.Emit(core.KV{Key: d, Value: fmt.Sprintf("C:%g", contrib)}); err != nil {
						return err
					}
				}
				return nil
			})
		},
		NumReduces: reduces,
	}
}

// prAggJob is job 2: sum contributions into new ranks, passing adjacency
// through for the next iteration.
func prAggJob(input, output string, reduces int) mapreduce.Job {
	return mapreduce.Job{
		Name:          "pagerank-agg",
		InputPrefixes: []string{input},
		Output:        output,
		NewMapper:     func() mapreduce.Mapper { return mapreduce.MapperFunc(prMap) },
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(page string, values []any, out mapreduce.Emitter) error {
				sum, contribs := 0.0, 0
				rank := 1.0
				adj := "" // the "A:" value, when the page has one
				for _, v := range values {
					s := v.(string)
					switch {
					case strings.HasPrefix(s, "C:"):
						c, err := strconv.ParseFloat(s[2:], 64)
						if err != nil {
							return err
						}
						sum += c
						contribs++
					case strings.HasPrefix(s, "R:"):
						r, err := strconv.ParseFloat(s[2:], 64)
						if err != nil {
							return err
						}
						rank = r
					case strings.HasPrefix(s, "A:"):
						adj = s
					default:
						return fmt.Errorf("mrapps: bad pagerank value %q", s)
					}
				}
				if contribs > 0 {
					rank = kernel.Rank(sum)
				}
				if adj != "" {
					if err := out.Emit(core.KV{Key: page, Value: adj}); err != nil {
						return err
					}
				}
				return out.Emit(core.KV{Key: page, Value: fmt.Sprintf("R:%g", rank)})
			})
		},
		NumReduces: reduces,
	}
}

// PageRankMRResult is the outcome of the baseline PageRank driver.
type PageRankMRResult struct {
	Iterations int
	Ranks      map[string]float64
	Result     *mapreduce.Result
}

// RunPageRankMR executes `iters` PageRank iterations as 2·iters chained
// jobs, reading the edge file from `input` and leaving final state under
// `work/iter<N>`. It parses the final ranks from HDFS.
func RunPageRankMR(e *mapreduce.Engine, fs *hdfs.FileSystem, input, work string, iters, reduces int) (*PageRankMRResult, error) {
	if iters <= 0 {
		iters = 1
	}
	cur, join := input, prEdgeMap
	var jobs []mapreduce.Job
	for it := 0; it < iters; it++ {
		mid := fmt.Sprintf("%s/iter%02d-contrib", work, it)
		out := fmt.Sprintf("%s/iter%02d-rank", work, it)
		jobs = append(jobs, prJoinJob(cur, mid, reduces, join), prAggJob(mid+"/", out, reduces))
		cur, join = out+"/", prMap
	}
	res, err := e.RunChain(jobs...)
	if err != nil {
		return nil, err
	}
	ranks := make(map[string]float64)
	err = eachOutputLine(fs, cur, func(page, v string) error {
		if !strings.HasPrefix(v, "R:") {
			return nil
		}
		r, err := strconv.ParseFloat(v[2:], 64)
		ranks[page] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return &PageRankMRResult{Iterations: iters, Ranks: ranks, Result: res}, nil
}
