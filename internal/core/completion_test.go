package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/transport"
)

// gatedLoader emits (word, 1) for every word of its split, one split per
// node. On node 1 it first waits for node 0's count to finish.
type gatedLoader struct {
	lines   [][]string // split n runs on node n
	counted chan struct{}
}

func (l *gatedLoader) Plan(env *Env) ([]Split, error) {
	splits := make([]Split, len(l.lines))
	for n, ls := range l.lines {
		splits[n] = Split{Payload: ls, PreferredNode: n}
	}
	return splits, nil
}

func (l *gatedLoader) Load(sp Split, ctx Context) error {
	if ctx.Node() == 1 {
		select {
		case <-l.counted:
		case <-time.After(10 * time.Second):
			return errors.New("node 0's count did not finish while node 1 was loading: a cluster-wide barrier on a local edge")
		}
	}
	for _, line := range sp.Payload.([]string) {
		for _, w := range strings.Fields(line) {
			if err := ctx.Emit(KV{Key: w, Value: int64(1)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// signalingSum is sumPartial that closes counted when it first finishes a
// key on node 0.
type signalingSum struct {
	sumPartial
	once    sync.Once
	counted chan struct{}
}

func (p *signalingSum) Finish(key string, state any, ctx Context) error {
	if ctx.Node() == 0 {
		p.once.Do(func() { close(p.counted) })
	}
	return p.sumPartial.Finish(key, state, ctx)
}

// TestLocalEdgeHasNoClusterBarrier: the consumer of a local edge hears only
// from its own node's producer (§2: Complete once "no more data will
// arrive"), so node 0's count finishes while node 1 is still loading. Were
// it to wait for the loader on every node, node 1's loader — which waits
// for node 0's count — would never finish.
func TestLocalEdgeHasNoClusterBarrier(t *testing.T) {
	lines := [][]string{{"a b a", "c a"}, {"b b", "c"}}
	counted := make(chan struct{})
	g := NewGraph("no-barrier")
	sink := NewCollectSink()
	ld, _ := g.AddLoader("load", &gatedLoader{lines: lines, counted: counted})
	ct, _ := g.AddPartialReduce("count", &signalingSum{counted: counted})
	sk, _ := g.AddSink("out", sink)
	if err := g.Connect(ld, ct, WithRouting(RouteLocal)); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(ct, sk); err != nil {
		t.Fatal(err)
	}
	nodes, cleanup := newTestCluster(t, 2, Config{Workers: 2})
	defer cleanup()
	if _, err := Run(g, nodes, nil); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, kv := range sink.Pairs() {
		got[kv.Key] += kv.Value.(int64)
	}
	if want := map[string]int64{"a": 3, "b": 3, "c": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("counts = %v, want %v", got, want)
	}
}

// completionTally wraps a network and records, per producing flowlet and
// (from, to) node pair, every completion a node sends: a marker, or a bin
// with Last set. Framed batches are counted message by message.
type completionTally struct {
	transport.Network
	graph *Graph

	mu             sync.Mutex
	heard          map[[3]int]int // {producer flowlet, from node, to node}
	markers, lasts int
	frames         int // batches of several messages
}

func (c *completionTally) Send(msg transport.Message) error {
	c.mu.Lock()
	c.count(msg)
	c.mu.Unlock()
	return c.Network.Send(msg)
}

func (c *completionTally) count(msg transport.Message) {
	switch p := msg.Payload.(type) {
	case *transport.BatchPayload:
		c.frames++
		for _, m := range p.Msgs {
			c.count(m)
		}
	case completeMsg:
		c.heard[[3]int{p.Flowlet, p.Node, int(msg.To)}]++
		c.markers++
	case *Bin:
		if p.Last {
			c.heard[[3]int{c.graph.Edges()[p.Edge].From, p.From, int(msg.To)}]++
			c.lasts++
		}
	}
}

// framedNetwork frames a runtime's sends through a transport.Coalescer
// over net. The runtime never flushes, so a flusher goroutine pushes
// pending frames out until stop; a frame holds whatever piled up between
// two passes.
func framedNetwork(net transport.Network, cfg transport.CoalescerConfig) (co *transport.Coalescer, stop func()) {
	co = transport.NewCoalescer(net, cfg)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = co.Flush()
			runtime.Gosched()
		}
	}()
	return co, func() {
		close(done)
		wg.Wait()
		_ = co.Flush()
	}
}

// TestCompletionFollowsTheData counts completion traffic per job on
// load →(local) split →(shuffle) count →(local) out: a sink, and a flowlet
// whose every out-edge is local, send nothing over the fabric; split tells
// each other node exactly once, on its last bin there or in one marker.
func TestCompletionFollowsTheData(t *testing.T) {
	const numNodes = 3
	chunks, want := wordChunks(6, 20)
	// coalesce < 0: the runtime sends straight to the fabric. coalesce = 0:
	// the fabric under it packs same-destination messages into frames
	// within the default coalescer bounds.
	for _, coalesce := range []int{-1, 0} {
		t.Run(fmt.Sprintf("coalesce=%d", coalesce), func(t *testing.T) {
			g := NewGraph("tally")
			sink := NewCollectSink()
			ld, _ := g.AddLoader("load", &sliceLoader{chunks: chunks})
			sp, _ := g.AddMap("split", wordSplit{})
			ct, _ := g.AddPartialReduce("count", sumPartial{})
			sk, _ := g.AddSink("out", sink)
			for _, err := range []error{
				g.Connect(ld, sp, WithRouting(RouteLocal)), g.Connect(sp, ct), g.Connect(ct, sk),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			tally := &completionTally{Network: NewTestNetwork(), graph: g, heard: map[[3]int]int{}}
			var net transport.Network = tally
			if coalesce >= 0 {
				co, stop := framedNetwork(tally, transport.CoalescerConfig{MaxMsgs: coalesce})
				// The coalescer's Close leaves the network under it open.
				defer tally.Close()
				defer stop()
				net = co
			}
			nodes, cleanup := newClusterOn(t, net, numNodes, Config{Workers: 2, BinSize: 16}, substrate.Handle{})
			defer cleanup()
			if _, err := Run(g, nodes, nil); err != nil {
				t.Fatal(err)
			}
			got := map[string]int64{}
			for _, kv := range sink.Pairs() {
				got[kv.Key] += kv.Value.(int64)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("counts = %v, want %v", got, want)
			}
			tally.mu.Lock()
			defer tally.mu.Unlock()
			t.Logf("%d framed batches crossed the fabric", tally.frames)
			if sent := tally.markers + tally.lasts; sent != numNodes*(numNodes-1) {
				t.Errorf("%d completions crossed the fabric, want %d (split's, one per ordered node pair): %v",
					sent, numNodes*(numNodes-1), tally.heard)
			}
			// Every split flushes a part-filled bin to every node here, so
			// each completion rides on one.
			if tally.markers != 0 {
				t.Errorf("%d completion markers, want every completion on a Last bin", tally.markers)
			}
			for from := 0; from < numNodes; from++ {
				for to := 0; to < numNodes; to++ {
					want := 1
					if from == to {
						want = 0 // told by a direct call, not over the fabric
					}
					if n := tally.heard[[3]int{sp, from, to}]; n != want {
						t.Errorf("node %d told node %d of split's completion %d times, want %d", from, to, n, want)
					}
				}
			}
		})
	}
}

// localEdgeEmitter emits one pair to the other node through the named
// emit call over its local edge.
type localEdgeEmitter struct{ how string }

func (l *localEdgeEmitter) Plan(env *Env) ([]Split, error) {
	return []Split{{PreferredNode: 0}}, nil
}

func (l *localEdgeEmitter) Load(sp Split, ctx Context) error {
	kv := KV{Key: "k", Value: int64(1)}
	if err := ctx.EmitToNode("stamp", ctx.Node(), kv); err != nil {
		return fmt.Errorf("to its own node: %w", err)
	}
	if l.how == "EmitToNode" {
		return ctx.EmitToNode("stamp", 1-ctx.Node(), kv)
	}
	return ctx.EmitBroadcast("stamp", kv)
}

// TestLocalEdgeStaysLocal: completion counting trusts that a local edge
// never crosses nodes, so EmitToNode or EmitBroadcast over one to another
// node is an error, not a bin the consumer would not wait for.
func TestLocalEdgeStaysLocal(t *testing.T) {
	for _, how := range []string{"EmitToNode", "EmitBroadcast"} {
		t.Run(how, func(t *testing.T) {
			g := NewGraph("local-" + how)
			ld, _ := g.AddLoader("load", &localEdgeEmitter{how: how})
			mp, _ := g.AddMap("stamp", nodeStamp{})
			sk, _ := g.AddSink("out", NewCollectSink())
			g.Connect(ld, mp, WithRouting(RouteLocal))
			g.Connect(mp, sk)
			nodes, cleanup := newTestCluster(t, 2, Config{Workers: 2})
			defer cleanup()
			_, err := Run(g, nodes, nil)
			if err == nil || !strings.Contains(err.Error(), "over local edge") || strings.Contains(err.Error(), "own node") {
				t.Fatalf("%s to the other node over a local edge: %v", how, err)
			}
		})
	}
}

// heldLoader blocks its split until release closes, keeping the job
// registered on every node.
type heldLoader struct{ release chan struct{} }

func (l *heldLoader) Plan(env *Env) ([]Split, error) { return []Split{{PreferredNode: 0}}, nil }

func (l *heldLoader) Load(sp Split, ctx Context) error {
	<-l.release
	return nil
}

// TestBinForNoEdgeFailsJob: a bin whose Edge names no edge of a known job
// fails that job — its pairs would be lost, and with them
// perhaps the completion it carries, which would hang the job instead.
func TestBinForNoEdgeFailsJob(t *testing.T) {
	nodes, cleanup := newTestCluster(t, 2, Config{Workers: 2})
	defer cleanup()
	for _, c := range []struct {
		name string
		edge int
	}{
		{"edge past the end", 2},
		{"negative edge", -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			release := make(chan struct{})
			defer close(release)
			g := NewGraph("bad-bin")
			ld, _ := g.AddLoader("load", &heldLoader{release: release})
			mp, _ := g.AddMap("map", nodeStamp{})
			sk, _ := g.AddSink("out", NewCollectSink())
			g.Connect(ld, mp)
			g.Connect(mp, sk)
			j, err := NewJob(g, nodes, nil)
			if err != nil {
				t.Fatal(err)
			}
			j.Start()
			rt := nodes[1]
			bin := rt.bins.Get()
			bin.Job, bin.Edge, bin.From, bin.Last = j.ID(), c.edge, 0, true
			bin.KVs = append(bin.KVs, KV{Key: "k", Value: int64(1)})
			dropped := rt.Metrics().Snapshot().Get("bins.dropped")
			rt.handle(transport.Message{From: 0, To: 1, Kind: msgBin, Payload: bin})
			done := make(chan error, 1)
			go func() {
				_, err := j.Wait()
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "does not have") {
					t.Errorf("job error = %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a bin for no edge of the job did not fail it")
			}
			if got := rt.Metrics().Snapshot().Get("bins.dropped") - dropped; got != 1 {
				t.Errorf("bins.dropped rose by %d, want 1", got)
			}
			if err := rt.bins.Stats().Home(); err != nil {
				t.Errorf("slabs after the drop: %v", err)
			}
		})
	}
}
