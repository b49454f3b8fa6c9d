package bench

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/metrics"
)

// The one set of job definitions and run fingerprints the package's tests
// share (invariance, vclock, trace). WordCount, PageRank and K-Means come
// from mrapps/hamrapps; what those packages lack — a TeraSort and a
// WordCount whose count is a full (accumulating, hence spilling) reduce —
// is defined here once.

// counterLine renders the named counters as "name=value ..." in the order
// given: the comparable fingerprint of what a run did.
func counterLine(reg *metrics.Registry, names []string) string {
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%d", n, reg.Counter(n).Value())
	}
	return strings.Join(parts, " ")
}

// hashHDFS fingerprints every HDFS file under prefix, names included.
// Reading the files back charges disk.read.bytes; every caller takes its
// counter line afterwards, so the readback is part of the fingerprint.
func hashHDFS(t *testing.T, c *cluster.Cluster, prefix string) string {
	t.Helper()
	h := sha256.New()
	for _, name := range c.FS().List(prefix) {
		data, err := c.FS().ReadFile(name, -1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n", name)
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// hashPairs fingerprints a collect sink's key-sorted output.
func hashPairs(sink *core.CollectSink) string {
	h := sha256.New()
	for _, kv := range sink.Sorted() {
		fmt.Fprintf(h, "%s=%v\n", kv.Key, kv.Value)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// teraLines builds n TeraSort-style rows: a deterministic pseudo-random
// 10-hex-digit key, a space, and a fixed-width payload, one per line.
func teraLines(n int) []byte {
	var sb strings.Builder
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		fmt.Fprintf(&sb, "%010x %08d-payload\n", state&0xFFFFFFFFFF, i)
	}
	return []byte(sb.String())
}

// teraSortJob is the baseline engine's TeraSort: cut the key off each row,
// let the shuffle sort, and write every value back in key order.
func teraSortJob(input, output string, reduces int) mapreduce.Job {
	return mapreduce.Job{
		Name:          "terasort",
		InputPrefixes: []string{input},
		Output:        output,
		NumReduces:    reduces,
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
}

// sumReduce is WordCount's count as a full reduce: the flowlet engine
// accumulates every (word, 1) before reducing, so under a small
// MemoryBudget the accumulator spills sorted runs and merges them back —
// the path hamrapps.BuildWordCount's partial reduce never takes.
type sumReduce struct{}

func (sumReduce) Reduce(key string, values []any, ctx core.Context) error {
	var total int64
	for _, v := range values {
		total += v.(int64)
	}
	return ctx.Emit(core.KV{Key: key, Value: total})
}

// buildSpillWordCount wires loader -> split -> count (full reduce) -> sink,
// mapping on the node that holds the lines like hamrapps.BuildWordCount.
func buildSpillWordCount(t testing.TB, files map[int][]string) (*core.Graph, *core.CollectSink) {
	t.Helper()
	g := core.NewGraph("spillwc")
	sink := core.NewCollectSink()
	ld, _ := g.AddLoader("load", &hamrapps.LocalTextLoader{Files: files})
	mp, _ := g.AddMap("split", hamrapps.SplitWords{})
	rd, _ := g.AddReduce("count", sumReduce{})
	sk, _ := g.AddSink("out", sink)
	for _, err := range []error{
		g.Connect(ld, mp, core.WithRouting(core.RouteLocal)),
		g.Connect(mp, rd, core.WithRouting(core.RouteShuffle)),
		g.Connect(rd, sk),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return g, sink
}
