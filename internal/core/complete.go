package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
)

// localOnly reports whether flowlet id has out-edges and every one is
// RouteLocal: its pairs never leave its node, so its completion concerns
// that node alone.
func (jn *jobNode) localOnly(id int) bool {
	for _, es := range jn.outBy[id] {
		if es.edge.Routing != RouteLocal {
			return false
		}
	}
	return len(jn.outBy[id]) > 0
}

// onComplete records that flowlet `fl` finished on node `node` and checks
// every downstream flowlet for readiness to finish. Completion propagates
// from loaders downstream, node by node (§2).
func (jn *jobNode) onComplete(fl, node int) {
	seen := map[int]bool{}
	for _, e := range jn.graph.Downstream(fl) {
		if seen[e.To] {
			continue // two edges from the same upstream count once
		}
		seen[e.To] = true
		fs := jn.flowlets[e.To]
		fs.mu.Lock()
		fs.upReceived++
		fs.mu.Unlock()
		jn.maybeFinish(fs)
	}
}

// maybeFinish finishes the flowlet on this node when its dependencies are
// satisfied: upstream complete everywhere and all delivered bins processed
// (loaders: all assigned splits done).
func (jn *jobNode) maybeFinish(fs *flowletState) {
	fs.mu.Lock()
	ready := false
	if !fs.finished && !fs.finishing {
		if fs.spec.Kind == KindLoader {
			ready = fs.splitsSet && fs.splitsDone == fs.splitsAssigned
		} else {
			ready = fs.upReceived == fs.upNeeded && fs.enqueued == fs.processed
		}
		if jn.failed.Load() {
			ready = true
		}
	}
	if ready {
		fs.finishing = true
	}
	fs.mu.Unlock()
	if !ready {
		return
	}
	// Finishing work runs on its own goroutine: it may fan out fine-grain
	// tasks to the pool and wait for them, which must not occupy a pool
	// worker.
	go jn.finishFlowlet(fs)
}

func (jn *jobNode) finishFlowlet(fs *flowletState) {
	if !jn.failed.Load() {
		var err error
		switch fs.spec.Kind {
		case KindPartialReduce:
			err = jn.finishPartial(fs)
		case KindReduce:
			err = jn.finishReduce(fs)
		}
		if err != nil && !errors.Is(err, ErrJobAborted) {
			jn.fail(fmt.Errorf("finish %q on node %d: %w", fs.spec.Name, jn.node, err))
		}
	}
	jn.flushFinal(fs)
	if fs.spec.Kind == KindSink {
		if err := fs.spec.Sink.Close(jn.node); err != nil && !jn.failed.Load() {
			jn.fail(fmt.Errorf("sink %q close on node %d: %w", fs.spec.Name, jn.node, err))
		}
	}
	fs.mu.Lock()
	fs.finished = true
	fs.finishedAt = time.Since(jn.started)
	fs.mu.Unlock()
	if jn.tr.Enabled() {
		jn.tr.Instant(jn.node, jn.traceTag,
			fmt.Sprintf("%s/complete:%s:%d", jn.traceTag, fs.spec.Name, jn.node), "flowlet", 0)
	}

	// This node hears of the completion directly, once it is recorded: its
	// bins were processed inline, so none is still in flight.
	if !jn.failed.Load() && len(jn.outBy[fs.spec.ID]) > 0 {
		jn.onComplete(fs.spec.ID, jn.node)
	}
	if int(jn.finishedN.Add(1)) == len(jn.flowlets) {
		jn.signalDone()
	}
}

// flushFinal sends the flowlet's partially filled output bins and tells
// every other node that can hear from it that it is complete here (§2):
// none when it is localOnly or has no out-edge, each other node once
// otherwise — on the last bin flushed to that node, on any edge (Bin.Last),
// or in one unicast marker when no bin is left for it. Either follows this
// node's earlier bins to it through the destination's inbox FIFO.
func (jn *jobNode) flushFinal(fs *flowletState) {
	outs := jn.outBy[fs.spec.ID]
	tell := len(outs) > 0 && !jn.localOnly(fs.spec.ID)
	for dest := 0; dest < jn.nodes && !jn.failed.Load(); dest++ {
		remote := tell && dest != jn.node
		// One bin is held back until the next shows up, so the last is
		// known when it is sent.
		var held *Bin
		var heldOn *edgeState
		for _, es := range outs {
			if bin := es.buf.take(dest); bin != nil {
				if held != nil {
					jn.sendFinal(heldOn, dest, held)
				}
				held, heldOn = bin, es
			}
		}
		switch {
		case held != nil:
			held.Last = remote
			jn.sendFinal(heldOn, dest, held)
		case remote:
			_ = jn.rt.net.Send(transport.Message{
				From:    transport.NodeID(jn.node),
				To:      transport.NodeID(dest),
				Kind:    msgComplete,
				Payload: completeMsg{Job: jn.jobID, Flowlet: fs.spec.ID, Node: jn.node},
				Size:    16,
			})
		}
	}
}

// sendFinal sends one final bin, waiting for flow-control credit; an abort
// it runs into is already the job's failure.
func (jn *jobNode) sendFinal(es *edgeState, dest int, bin *Bin) {
	if err := jn.sendBin(es, dest, bin, true); err != nil && !errors.Is(err, ErrJobAborted) {
		jn.fail(err)
	}
}

// fanOut runs a finishing flowlet's fine-grain tasks on the pool. Each
// waits for room in the flowlet's output windows before it is submitted,
// fires under the fault injector in a span of its own, and at most
// Workers*2 are in flight, so a huge key space does not re-materialize in
// memory while tasks queue.
type fanOut struct {
	jn       *jobNode
	fs       *flowletState
	kind     string // the tasks' span category
	inflight par.Semaphore
	wg       sync.WaitGroup
	mu       sync.Mutex
	err      error // the first task's error
}

func (jn *jobNode) newFanOut(fs *flowletState, kind string) *fanOut {
	return &fanOut{jn: jn, fs: fs, kind: kind, inflight: par.NewSemaphore(jn.rt.cfg.Workers * 2)}
}

// submit runs fn as the task at site once the flowlet's output windows have
// room; it reports false, and runs nothing, if the job aborted first.
func (f *fanOut) submit(site string, fn func() error) bool {
	jn := f.jn
	if !jn.waitOutBelow(f.fs) {
		return false
	}
	f.wg.Add(1)
	f.inflight.Acquire()
	jn.rt.pool.Submit(func() {
		defer f.wg.Done()
		defer f.inflight.Release()
		var tsp trace.Span
		if jn.tr.Enabled() {
			tsp = jn.tr.Start(jn.node, jn.traceTag, jn.traceTag+"/"+site, f.kind, "cpu")
			defer tsp.End()
		}
		if err := jn.fireTask(site, fn); err != nil {
			f.mu.Lock()
			if f.err == nil {
				f.err = err
			}
			f.mu.Unlock()
		}
	})
	return true
}

// wait waits for every submitted task and returns the first one's error.
func (f *fanOut) wait() error {
	f.wg.Wait()
	return f.err
}

// finishReduce iterates the accumulated groups (merging spills) and runs
// the user reducer over batches of keys as fine-grain pool tasks.
func (jn *jobNode) finishReduce(fs *flowletState) error {
	// The accumulate window closes where the grouped reduce begins: the
	// span [first pair accumulated, here] is this node's reduce-input
	// build-up, the interval that overlaps upstream work.
	fs.accSpan.End()
	var rsp trace.Span
	if jn.tr.Enabled() {
		rsp = jn.tr.Start(jn.node, jn.traceTag,
			fmt.Sprintf("%s/reduce:%s:%d", jn.traceTag, fs.spec.Name, jn.node), "reduce", "cpu")
		defer rsp.End()
	}
	ctx := &flowCtx{jn: jn, fs: fs}
	type group struct {
		key    string
		values []any
	}
	// A batch holds at most ReduceTaskKeys groups and never more than the
	// pairs still to come, so a node left with a handful of keys does not
	// allocate a full batch for them.
	remaining := fs.acc.Count()
	newBatch := func() []group {
		return make([]group, 0, min(int64(jn.rt.cfg.ReduceTaskKeys), remaining))
	}
	batch := newBatch()
	tasks := jn.newFanOut(fs, "reduce")
	batchIdx := 0
	submit := func(b []group) bool {
		site := fmt.Sprintf("rbatch:%s:%d:%d", fs.spec.Name, jn.node, batchIdx)
		batchIdx++
		return tasks.submit(site, func() error {
			for _, g := range b {
				if jn.failed.Load() {
					return nil
				}
				if err := fs.spec.Reducer.Reduce(g.key, g.values, ctx); err != nil {
					return err
				}
			}
			jn.reg.Inc("reduce.tasks")
			return nil
		})
	}
	err := fs.acc.iterate(func(key string, values []any) error {
		if jn.failed.Load() {
			return ErrJobAborted
		}
		batch = append(batch, group{key, values})
		remaining -= int64(len(values))
		if len(batch) >= jn.rt.cfg.ReduceTaskKeys {
			if !submit(batch) {
				return ErrJobAborted
			}
			batch = newBatch()
		}
		return nil
	})
	if len(batch) > 0 && err == nil && !submit(batch) {
		// The job aborted while the final batch waited on flow control;
		// without this the abort would be silently swallowed and the job
		// reported clean with the tail of the key space never reduced.
		err = ErrJobAborted
	}
	if terr := tasks.wait(); err == nil {
		err = terr
	}
	return err
}
