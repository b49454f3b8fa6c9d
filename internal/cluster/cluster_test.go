package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/kvstore"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/transport"
	"github.com/hamr-go/hamr/internal/yarn"
)

func TestNewWiresServices(t *testing.T) {
	c, err := New(Options{NumNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumNodes() != 3 || len(c.Nodes()) != 3 || len(c.Disks()) != 3 {
		t.Fatal("geometry wrong")
	}
	for i, rt := range c.Nodes() {
		if _, ok := rt.Service(ServiceHDFS).(*hdfs.FileSystem); !ok {
			t.Errorf("node %d missing hdfs service", i)
		}
		if _, ok := rt.Service(ServiceKVStore).(*kvstore.Store); !ok {
			t.Errorf("node %d missing kvstore service", i)
		}
		if d, ok := rt.Service(ServiceDisk).(storage.Disk); !ok || d != c.Disk(i) {
			t.Errorf("node %d disk service wrong", i)
		}
	}
	if c.Yarn() == nil || c.Store() == nil || c.FS() == nil || c.Metrics() == nil {
		t.Fatal("cluster handles missing")
	}
}

func TestLocalTextRoundTrip(t *testing.T) {
	c, err := New(Options{NumNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteLocalText(1, "f.txt", []byte("on node one")); err != nil {
		t.Fatal(err)
	}
	data, err := c.ReadLocalText(1, "f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "on node one" {
		t.Fatalf("read %q", data)
	}
	if _, err := c.ReadLocalText(0, "f.txt"); err == nil {
		t.Fatal("file visible from the wrong node's disk")
	}
}

func TestChargeNetSerializesPerReceiver(t *testing.T) {
	model := transport.CostModel{BytesPerSec: 10 << 20} // 10 MB/s
	c, err := New(Options{NumNodes: 3, NetModel: &model})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two concurrent 512KiB transfers to the SAME receiver must serialize
	// (>= ~100ms); to different receivers they overlap (< ~100ms).
	elapsed := func(to1, to2 transport.NodeID) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for _, to := range []transport.NodeID{to1, to2} {
			wg.Add(1)
			go func(to transport.NodeID) {
				defer wg.Done()
				c.ChargeNet(2, to, 512<<10)
			}(to)
		}
		wg.Wait()
		return time.Since(start)
	}
	same := elapsed(0, 0)
	diff := elapsed(0, 1)
	if same < 90*time.Millisecond {
		t.Errorf("same-receiver transfers took %v, want >= ~100ms", same)
	}
	if diff > same {
		t.Errorf("different receivers (%v) slower than same receiver (%v)", diff, same)
	}
}

func TestChargeNetSelfIsFree(t *testing.T) {
	model := transport.CostModel{BytesPerSec: 1} // absurdly slow
	c, err := New(Options{NumNodes: 2, NetModel: &model})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	c.ChargeNet(1, 1, 1<<30)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("self transfer charged")
	}
}

func TestRunJobOnCluster(t *testing.T) {
	c, err := New(Options{NumNodes: 4, Core: core.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Store input in HDFS, run a job whose loader reads it back via the
	// hdfs service — exercises the full service wiring.
	content := "red green blue\nred blue\nblue\n"
	if err := c.FS().WriteFile("in/colors.txt", []byte(content), -1); err != nil {
		t.Fatal(err)
	}

	g := core.NewGraph("colors")
	sink := core.NewCollectSink()
	ld, _ := g.AddLoader("load", &hdfsLoader{prefix: "in/"})
	mp, _ := g.AddMap("split", splitter{})
	pr, _ := g.AddPartialReduce("count", summer{})
	sk, _ := g.AddSink("out", sink)
	g.Connect(ld, mp)
	g.Connect(mp, pr)
	g.Connect(pr, sk)

	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, kv := range sink.Pairs() {
		got[kv.Key] += kv.Value.(int64)
	}
	if got["blue"] != 3 || got["red"] != 2 || got["green"] != 1 {
		t.Fatalf("counts = %v", got)
	}
}

func TestYarnIntegration(t *testing.T) {
	c, err := New(Options{NumNodes: 2, YarnMemMB: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ct, err := c.Yarn().Allocate(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Node != 0 {
		t.Errorf("container on node %d", ct.Node)
	}
	c.Yarn().Release(ct)
	if _, err := c.Yarn().Allocate(101, -1); err == nil {
		t.Error("oversized container granted")
	}
	var ye *yarn.Scheduler = c.Yarn()
	_ = ye
}

// hdfsLoader reads lines of all files under a prefix.
type hdfsLoader struct{ prefix string }

func (l *hdfsLoader) Plan(env *core.Env) ([]core.Split, error) {
	fs := env.Service(ServiceHDFS).(*hdfs.FileSystem)
	splits, err := fs.SplitsGlob(l.prefix)
	if err != nil {
		return nil, err
	}
	out := make([]core.Split, len(splits))
	for i, sp := range splits {
		pref := -1
		if len(sp.Hosts) > 0 {
			pref = int(sp.Hosts[0])
		}
		out[i] = core.Split{Payload: sp, PreferredNode: pref}
	}
	return out, nil
}

func (l *hdfsLoader) Load(sp core.Split, ctx core.Context) error {
	fs := ctx.Service(ServiceHDFS).(*hdfs.FileSystem)
	it, err := fs.OpenLines(sp.Payload.(hdfs.Split), transport.NodeID(ctx.Node()))
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		line, _, ok := it.Next()
		if !ok {
			return it.Err()
		}
		if err := ctx.Emit(core.KV{Value: line}); err != nil {
			return err
		}
	}
}

type splitter struct{}

func (splitter) Map(kv core.KV, ctx core.Context) error {
	for _, w := range strings.Fields(kv.Value.(string)) {
		if err := ctx.Emit(core.KV{Key: w, Value: int64(1)}); err != nil {
			return err
		}
	}
	return nil
}

type summer struct{}

func (summer) Update(key string, state, value any) (any, error) {
	if state == nil {
		return value, nil
	}
	return state.(int64) + value.(int64), nil
}

func (summer) Finish(key string, state any, ctx core.Context) error {
	return ctx.Emit(core.KV{Key: key, Value: state})
}
