package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/faults"
)

func wcChunks() [][]string {
	chunks := make([][]string, 4)
	for i := range chunks {
		for j := 0; j < 20; j++ {
			chunks[i] = append(chunks[i], fmt.Sprintf("w%d w%d w%d", j%5, (i+j)%7, j%3))
		}
	}
	return chunks
}

// TestStagedJobMatchesRun: NewJob/Start/Wait is the same execution as the
// one-shot Run — identical outputs and identical per-job counters.
func TestStagedJobMatchesRun(t *testing.T) {
	chunks := wcChunks()

	nodes, cleanup := newTestCluster(t, 3, Config{Workers: 2})
	g1, sink1 := buildWordCount(t, true, chunks)
	res1, err := Run(g1, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	cleanup()

	nodes2, cleanup2 := newTestCluster(t, 3, Config{Workers: 2})
	defer cleanup2()
	g2, sink2 := buildWordCount(t, true, chunks)
	j, err := NewJob(g2, nodes2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() == 0 {
		t.Error("job has no id before Start")
	}
	j.Start()
	j.Start() // idempotent
	res2, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(res1.Metrics.Counters, res2.Metrics.Counters) {
		t.Errorf("staged counters differ from Run:\n run:    %v\n staged: %v",
			res1.Metrics.Counters, res2.Metrics.Counters)
	}
	count := func(s *CollectSink) map[string]int64 {
		m := map[string]int64{}
		for _, kv := range s.Pairs() {
			m[kv.Key] += kv.Value.(int64)
		}
		return m
	}
	if !reflect.DeepEqual(count(sink1), count(sink2)) {
		t.Error("staged output differs from Run")
	}
}

// TestJobAbortTyped: Abort surfaces through Wait as the given error, and a
// wrapped ErrJobCanceled matches with errors.Is.
func TestJobAbortTyped(t *testing.T) {
	nodes, cleanup := newTestCluster(t, 2, Config{Workers: 1})
	defer cleanup()
	g, _ := buildWordCount(t, true, wcChunks())
	j, err := NewJob(g, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Start()
	j.Abort(fmt.Errorf("caller stop: %w", ErrJobCanceled))
	done := make(chan error, 1)
	go func() { _, werr := j.Wait(); done <- werr }()
	select {
	case werr := <-done:
		if !errors.Is(werr, ErrJobCanceled) {
			t.Fatalf("Wait after Abort = %v, want ErrJobCanceled", werr)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("aborted job did not settle")
	}
}

// TestAbortCauseReachesEveryNode: a job that fails on node 1 fails on every
// node, and each node's error keeps the typed cause — errors.Is still
// matches ErrJobCanceled, faults.IsInjected an injected fault — after the
// abort broadcast carried it across the fabric.
func TestAbortCauseReachesEveryNode(t *testing.T) {
	for _, c := range []struct {
		name  string
		err   error
		match func(error) bool
	}{
		{"canceled", fmt.Errorf("caller stop: %w", ErrJobCanceled), func(err error) bool { return errors.Is(err, ErrJobCanceled) }},
		{"injected", fmt.Errorf("loader failed: %w", &faults.Error{Op: "flowlet.fire", Site: "split:load:1:0#3"}), faults.IsInjected},
	} {
		t.Run(c.name, func(t *testing.T) {
			nodes, cleanup := newTestCluster(t, 3, Config{Workers: 2})
			defer cleanup()
			// Node 0's held split keeps the job running on every node until
			// the failure reaches it.
			release := make(chan struct{})
			defer close(release)
			g := NewGraph("abort-" + c.name)
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
			j.jns[1].fail(c.err)
			done := make(chan struct{})
			go func() { j.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("a failure on node 1 did not end the job on every node")
			}
			for n, jn := range j.jns {
				if err := jn.Error(); !c.match(err) {
					t.Errorf("node %d: error %v lost its cause", n, err)
				}
			}
		})
	}
}

// TestNewJobTypedErrors: planning failures come back as the exported
// sentinels so callers can branch with errors.Is.
func TestNewJobTypedErrors(t *testing.T) {
	nodes, cleanup := newTestCluster(t, 1, Config{Workers: 1})
	defer cleanup()
	g, _ := buildWordCount(t, true, wcChunks())
	if _, err := NewJob(g, nil, nil); !errors.Is(err, ErrNoNodes) {
		t.Errorf("no nodes: %v, want ErrNoNodes", err)
	}
	if _, err := NewJob(nil, nodes, nil); !errors.Is(err, ErrGraphInvalid) {
		t.Errorf("nil graph: %v, want ErrGraphInvalid", err)
	}
	if _, err := NewJob(NewGraph("empty"), nodes, nil); !errors.Is(err, ErrGraphInvalid) {
		t.Errorf("empty graph: %v, want ErrGraphInvalid", err)
	}
}
