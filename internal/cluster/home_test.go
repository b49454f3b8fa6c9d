package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/storage"
)

// TestBuffersHomeAcrossEngines runs three jobs on one cluster: WordCount
// on HAMR, WordCount on the MapReduce baseline (spilling, combining and
// merging), and a HAMR job aborted while every node's reduce flowlet is
// iterating. After each, once the disks are emptied, every free list the
// cluster gathers must be home (par.Stats.Home). That covers the nodes'
// bins, accumulator chunks and partial-reduce scratch, the disks' pages,
// HDFS's write buffers, the baseline's spill scratch and the process-wide
// record buffers. No node may have dropped a bin.
func TestBuffersHomeAcrossEngines(t *testing.T) {
	const nodes = 3
	c, err := cluster.New(cluster.Options{
		NumNodes: nodes, HDFSBlockSize: 4 << 10,
		Core: core.Config{Workers: 2, BinSize: 16, ReduceTaskKeys: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	text, want := homeCorpus(600)
	write := func(name string) {
		t.Helper()
		if err := c.FS().WriteFile(name, text, -1); err != nil {
			t.Fatal(err)
		}
	}
	home := func(when string) {
		t.Helper()
		// A stored file holds its pages, so the disks are emptied first.
		for _, f := range c.FS().List("") {
			if err := c.FS().Remove(f); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range c.Disks() {
			for _, f := range d.List("") {
				if err := d.Remove(f); err != nil {
					t.Fatal(err)
				}
			}
		}
		lists := c.Buffers()
		lists.Add("", storage.RecordBuffers())
		if err := lists.Home(); err != nil {
			t.Errorf("%s:\n%v", when, err)
		}
		if d := c.Metrics().Counter("bins.dropped").Value(); d != 0 {
			t.Errorf("%s: bins.dropped = %d", when, d)
		}
	}

	write("in/hamr.txt")
	g, sink, err := hamrapps.BuildWordCount(hamrapps.WordCountOptions{Loader: &hamrapps.HDFSTextLoader{Prefix: "in/hamr.txt"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(g); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, kv := range sink.Pairs() {
		got[kv.Key] += kv.Value.(int64)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HAMR counted %v, want %v", got, want)
	}
	home("after HAMR WordCount")

	write("in/mr.txt")
	e := mapreduce.NewEngine(c, mapreduce.Config{SortBufferBytes: 1 << 10, MergeFactor: 3})
	if _, err := e.Run(mrapps.WordCountJob("in/mr.txt", "out/mr", true, nodes)); err != nil {
		t.Fatal(err)
	}
	if got := mrCounts(t, c, "out/mr/"); !reflect.DeepEqual(got, want) {
		t.Fatalf("MapReduce counted %v, want %v", got, want)
	}
	home("after MapReduce WordCount")

	write("in/abort.txt")
	red := &gateReduce{nodes: nodes, started: make(chan struct{}), gate: make(chan struct{})}
	g = core.NewGraph("abort-mid-reduce")
	ld, _ := g.AddLoader("load", &hamrapps.HDFSTextLoader{Prefix: "in/abort.txt"})
	mp, _ := g.AddMap("split", hamrapps.SplitWords{})
	rd, _ := g.AddReduce("count", red)
	sk, _ := g.AddSink("out", core.NewCollectSink())
	for _, edge := range [][2]int{{ld, mp}, {mp, rd}, {rd, sk}} {
		if err := g.Connect(edge[0], edge[1]); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.RunContext(ctx, g)
		done <- err
	}()
	select {
	case <-red.started:
	case <-time.After(20 * time.Second):
		t.Fatal("the reduce flowlets never started on every node")
	}
	cancel()
	if err := <-done; !errors.Is(err, core.ErrJobCanceled) {
		t.Fatalf("RunContext after cancel = %v, want ErrJobCanceled", err)
	}
	close(red.gate)
	// RunContext returns at the abort; the reduce flowlets still hold
	// their chunks until they see it.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if nodeListsHome(c) {
			break
		}
	}
	home("after a HAMR job aborted mid-reduce")
}

// nodeListsHome reports whether every node runtime's lists are home.
func nodeListsHome(c *cluster.Cluster) bool {
	for _, rt := range c.Nodes() {
		if rt.Buffers().Home() != nil {
			return false
		}
	}
	return true
}

// gateReduce holds every reduce call until gate closes, and closes
// started once a call has entered on each node. It emits nothing, so no
// bin is left half filled when the job is aborted.
type gateReduce struct {
	nodes   int
	mu      sync.Mutex
	entered map[int]bool
	started chan struct{}
	gate    chan struct{}
}

func (r *gateReduce) Reduce(key string, values []any, ctx core.Context) error {
	r.mu.Lock()
	if r.entered == nil {
		r.entered = map[int]bool{}
	}
	if !r.entered[ctx.Node()] {
		if r.entered[ctx.Node()] = true; len(r.entered) == r.nodes {
			close(r.started)
		}
	}
	r.mu.Unlock()
	<-r.gate
	return nil
}

// homeCorpus returns lines of words drawn from a 60-word vocabulary, so
// every node reduces some, and the count of each word.
func homeCorpus(lines int) ([]byte, map[string]int64) {
	want := map[string]int64{}
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		for j := 0; j < 6; j++ {
			w := fmt.Sprintf("w%02d", (i*13+j*7)%60)
			want[w]++
			sb.WriteString(w)
			sb.WriteByte(' ')
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String()), want
}

// mrCounts reads the word counts a MapReduce job wrote under prefix.
func mrCounts(t *testing.T, c *cluster.Cluster, prefix string) map[string]int64 {
	t.Helper()
	got := map[string]int64{}
	for _, f := range c.FS().List(prefix) {
		data, err := c.FS().ReadFile(f, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line == "" {
				continue
			}
			word, n, _ := strings.Cut(line, "\t")
			v, err := strconv.ParseInt(n, 10, 64)
			if err != nil {
				t.Fatalf("%s: %q: %v", f, line, err)
			}
			got[word] += v
		}
	}
	return got
}
