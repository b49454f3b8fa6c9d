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

// TestBuffersHomeAcrossEngines runs four jobs on one cluster: WordCount
// on HAMR, WordCount on the MapReduce baseline (spilling, combining and
// merging), a HAMR reduce job to its end, and the same job aborted while
// every node's reduce flowlet is iterating, with more reduce tasks waiting
// behind the ones that hold.
// After each, once the disks are emptied, every free list the cluster
// gathers must be home (par.Stats.Home). That covers the nodes'
// bins, accumulator chunks and partial-reduce scratch, the disks' pages,
// HDFS's write buffers, the baseline's spill scratch and the process-wide
// record buffers. No node may have dropped a bin.
func TestBuffersHomeAcrossEngines(t *testing.T) {
	const nodes = 3
	c, err := cluster.New(cluster.Options{
		NumNodes: nodes, HDFSBlockSize: 4 << 10,
		Core: core.Config{Workers: 2, BinSize: 16},
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
	reduceGraph := func(red *gateReduce) *core.Graph {
		g := core.NewGraph("abort-mid-reduce")
		ld, _ := g.AddLoader("load", &hamrapps.HDFSTextLoader{Prefix: "in/abort.txt"})
		mp, _ := g.AddMap("split", hamrapps.SplitWords{})
		rd, _ := g.AddReduce("count", red)
		sk, _ := g.AddSink("out", core.NewCollectSink())
		for _, edge := range [][2]int{{ld, mp}, {mp, rd}, {rd, sk}} {
			if err := g.Connect(edge[0], edge[1]); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	// Run to the end once, the gate open: each node's keys make at least
	// two reduce tasks of 64 keys (the engine's batch), so the aborted run
	// has tasks queued behind the ones the gate holds.
	open := newGateReduce(nodes)
	close(open.gate)
	res, err := c.Run(reduceGraph(open))
	if err != nil {
		t.Fatal(err)
	}
	var tasks int64
	for node, keys := range open.keys {
		if keys <= 64 {
			t.Errorf("node %d reduced %d keys, want more than one task's 64", node, keys)
		}
		tasks += int64(keys+63) / 64
	}
	if got := res.Metrics.Get("reduce.tasks"); got != tasks {
		t.Errorf("reduce.tasks = %d, want %d: 64 keys a task on each node", got, tasks)
	}
	home("after the reduce job ran to the end")

	write("in/abort.txt")
	red := newGateReduce(nodes)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.RunContext(ctx, reduceGraph(red))
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

// TestBuffersOutliveTheCluster: a closed cluster's node lists and disks,
// pages and all, go to the next cluster built with the same options. After
// cluster A has run WordCount on HAMR and on the MapReduce baseline, the
// same two jobs on cluster B make no bin, accumulator chunk, partial-reduce
// scratch, reduce batch or disk page, and B's lists are home after them,
// its disks emptied.
// Each list's peak must repeat from run to run, so nothing runs at once:
// one node, hosting one YARN container at a time, one worker, and an input
// of one block, so one loader split and one map task. Where tasks overlap
// a list's peak follows how they interleave, and a B that topped A's
// would make the difference.
func TestBuffersOutliveTheCluster(t *testing.T) {
	const nodes = 1
	opts := cluster.Options{
		NumNodes: nodes, HDFSBlockSize: 1 << 20, YarnMemMB: 512,
		Core: core.Config{Workers: 1, BinSize: 16, FlowControlWindow: 32},
	}
	text, want := homeCorpus(600)
	run := func(c *cluster.Cluster) {
		t.Helper()
		if err := c.FS().WriteFile("in/hamr.txt", text, -1); err != nil {
			t.Fatal(err)
		}
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
		if err := c.FS().WriteFile("in/mr.txt", text, -1); err != nil {
			t.Fatal(err)
		}
		e := mapreduce.NewEngine(c, mapreduce.Config{SortBufferBytes: 1 << 10, MergeFactor: 3})
		if _, err := e.Run(mrapps.WordCountJob("in/mr.txt", "out/mr", true, nodes)); err != nil {
			t.Fatal(err)
		}
		if got := mrCounts(t, c, "out/mr/"); !reflect.DeepEqual(got, want) {
			t.Fatalf("MapReduce counted %v, want %v", got, want)
		}
	}
	// made is what every node list and disk page class has made so far.
	made := func(c *cluster.Cluster) map[string]int {
		m := map[string]int{}
		for name, stats := range c.Buffers() {
			if strings.HasPrefix(name, "node") || strings.HasPrefix(name, "disk") {
				m[name] = stats().Made
			}
		}
		return m
	}

	a, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	run(a)
	a.Close()

	b, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	before := made(b)
	run(b)
	for name, n := range made(b) {
		if n != before[name] {
			t.Errorf("%s: cluster B made %d, want none: cluster A's %d should have served it", name, n-before[name], before[name])
		}
	}
	for _, d := range b.Disks() {
		d.(*storage.MemDisk).Empty()
	}
	if err := b.Buffers().Home(); err != nil {
		t.Errorf("cluster B's lists after its jobs:\n%v", err)
	}
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

// gateReduce holds every reduce call until gate closes, counts the keys
// each node reduces, and closes started once a call has entered on each
// node. It emits nothing, so no bin is left half filled when the job is
// aborted.
type gateReduce struct {
	nodes   int
	mu      sync.Mutex
	keys    map[int]int
	started chan struct{}
	gate    chan struct{}
}

func newGateReduce(nodes int) *gateReduce {
	return &gateReduce{nodes: nodes, keys: map[int]int{}, started: make(chan struct{}), gate: make(chan struct{})}
}

func (r *gateReduce) Reduce(key string, values []any, ctx core.Context) error {
	r.mu.Lock()
	if r.keys[ctx.Node()]++; r.keys[ctx.Node()] == 1 && len(r.keys) == r.nodes {
		close(r.started)
	}
	r.mu.Unlock()
	<-r.gate
	return nil
}

// homeCorpus returns lines of words drawn from a 600-word vocabulary, so
// every node reduces a few hundred, and the count of each word.
func homeCorpus(lines int) ([]byte, map[string]int64) {
	want := map[string]int64{}
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		for j := 0; j < 6; j++ {
			w := fmt.Sprintf("w%03d", (i*13+j*7)%600)
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
