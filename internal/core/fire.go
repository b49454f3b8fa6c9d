package core

import (
	"errors"
	"fmt"

	"github.com/hamr-go/hamr/internal/transport"
)

// onBin receives a bin for a flowlet on this node. Local bins are
// processed inline by the emitting task (operator chaining); remote bins
// are gated by the destination flowlet's flow-control state and otherwise
// dispatched to the worker pool. A bin that names no edge of this job fails
// it: its data would be lost, and so might the completion it carries.
func (jn *jobNode) onBin(bin *Bin, local bool) {
	if bin.Edge < 0 || bin.Edge >= len(jn.edges) {
		jn.rt.binsDropped.Inc()
		jn.fail(fmt.Errorf("core: node %d got a bin for job %d on edge %d, which the job does not have (%d kvs, from node %d)",
			jn.node, bin.Job, bin.Edge, len(bin.KVs), bin.From))
		bin.release()
		return
	}
	fs := jn.flowlets[jn.edges[bin.Edge].edge.To]
	jn.mBinsRecv.Inc()
	if local {
		fs.mu.Lock()
		fs.enqueued++
		fs.mu.Unlock()
		jn.processBin(fs, bin, true)
		return
	}
	// Read before the bin is handed on: the task that processes it returns
	// the slab to its list, where the next producer refills it.
	last, producer, from := bin.Last, jn.edges[bin.Edge].edge.From, bin.From
	fs.mu.Lock()
	fs.enqueued++
	// Flow control: stop scheduling this flowlet until its output window
	// drains (§2).
	gated := !jn.failed.Load() && jn.outFull(fs)
	if gated {
		fs.pending = append(fs.pending, bin)
	}
	fs.mu.Unlock()
	if gated {
		jn.mFlowGated.Inc()
	} else {
		jn.rt.pool.Submit(func() { jn.processBin(fs, bin, false) })
	}
	if last {
		// Counted once the bin is enqueued, so the consumer still has to
		// process it — gated or not — before it can finish.
		jn.onComplete(producer, from)
	}
}

// drainPending re-schedules bins that were gated by flow control once the
// flowlet's output windows have room again.
func (jn *jobNode) drainPending(fs *flowletState) {
	for {
		fs.mu.Lock()
		if len(fs.pending) == 0 || (jn.outFull(fs) && !jn.failed.Load()) {
			fs.mu.Unlock()
			return
		}
		// A popped entry left in the backing array would pin a bin the
		// queue no longer owns — by now recycled and someone else's.
		bin := fs.pending[0]
		fs.pending[0] = nil
		if fs.pending = fs.pending[1:]; len(fs.pending) == 0 {
			fs.pending = nil // drop the stranded head with the array
		}
		fs.mu.Unlock()
		jn.rt.pool.Submit(func() { jn.processBin(fs, bin, false) })
	}
}

// processBin fires the flowlet on one bin, returns the bin's slab home and
// acks it to a remote producer.
func (jn *jobNode) processBin(fs *flowletState, bin *Bin, local bool) {
	if !jn.failed.Load() {
		if err := jn.applyBin(fs, bin); err != nil && !errors.Is(err, ErrJobAborted) {
			jn.fail(fmt.Errorf("flowlet %q on node %d: %w", fs.spec.Name, jn.node, err))
		}
	}
	// applyBin copied every pair out by value, so the slab goes home here:
	// before processed++ (a finished job has every slab back) and before
	// the ack (the producer it unblocks finds the slab on its list).
	from, edge := bin.From, bin.Edge
	bin.release()
	if !local {
		// Ack frees the producer's flow-control credit. It is on the fabric
		// before processed++, so the job's traffic is priced by the time
		// this node reports the job done.
		_ = jn.rt.net.Send(transport.Message{
			From:    transport.NodeID(jn.node),
			To:      transport.NodeID(from),
			Kind:    msgAck,
			Payload: ackMsg{Job: jn.jobID, Edge: edge},
			Size:    16,
		})
	}
	fs.mu.Lock()
	fs.processed++
	fs.mu.Unlock()
	jn.maybeFinish(fs)
}

// applyBin runs the flowlet's user code over one bin of input.
func (jn *jobNode) applyBin(fs *flowletState, bin *Bin) error {
	switch fs.spec.Kind {
	case KindMap:
		ctx := &flowCtx{jn: jn, fs: fs}
		for _, kv := range bin.KVs {
			if err := fs.spec.Mapper.Map(kv, ctx); err != nil {
				return err
			}
		}
	case KindPartialReduce:
		return fs.applyPartialBin(bin)
	case KindReduce:
		if jn.tr.Enabled() {
			fs.accOnce.Do(func() {
				fs.accSpan = jn.tr.Start(jn.node, jn.traceTag,
					fmt.Sprintf("%s/acc:%s:%d", jn.traceTag, fs.spec.Name, jn.node), "accumulate", "cpu")
			})
		}
		for _, kv := range bin.KVs {
			if err := fs.acc.add(kv); err != nil {
				return err
			}
		}
	case KindSink:
		fs.sinkMu.Lock()
		defer fs.sinkMu.Unlock()
		for _, kv := range bin.KVs {
			if err := fs.spec.Sink.Write(jn.node, kv); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("core: bin delivered to %v flowlet", fs.spec.Kind)
	}
	return nil
}

// onAck releases one flow-control credit and reopens the producing
// flowlet's gate.
func (jn *jobNode) onAck(edge int) {
	if edge < 0 || edge >= len(jn.edges) {
		return
	}
	es := jn.edges[edge]
	es.cred.release()
	jn.drainPending(jn.flowlets[es.edge.From])
}

// outFull reports whether any of the flowlet's output windows is
// exhausted; such a flowlet is not scheduled for new input bins.
func (jn *jobNode) outFull(fs *flowletState) bool {
	for _, es := range jn.outBy[fs.spec.ID] {
		if es.cred.full() {
			return true
		}
	}
	return false
}

// waitOutBelow blocks (on a plain goroutine, never a pool worker) until
// every output window of fs has room. Returns false if the job aborted.
func (jn *jobNode) waitOutBelow(fs *flowletState) bool {
	for _, es := range jn.outBy[fs.spec.ID] {
		if !es.cred.waitBelow() {
			return false
		}
	}
	return true
}
