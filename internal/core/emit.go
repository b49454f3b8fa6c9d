package core

import (
	"fmt"

	"github.com/hamr-go/hamr/internal/transport"
)

// sendBin stamps and ships one sealed bin to dest, giving up ownership of
// it (an aborted send leaves the slab to the GC). Local destinations are
// processed inline (operator chaining) and take no credit; remote sends
// take one — blocking first if the caller runs on a plain goroutine or a
// loader task (blocking=true), overshooting otherwise.
func (jn *jobNode) sendBin(es *edgeState, dest int, bin *Bin, blocking bool) error {
	bin.Job, bin.Edge, bin.From = jn.jobID, es.idx, jn.node
	jn.mBinsSent.Inc()
	if dest == jn.node {
		// The chained flowlet runs inside this task, so its output windows
		// are this task's too: a loader waits for them here as it does for
		// its own. Without this a loader chained into a local map emitted
		// its whole split past the map's window, and the bins in flight —
		// hence the slabs a node needs — were bounded by nothing.
		if blocking && !jn.waitOutBelow(jn.flowlets[es.edge.To]) {
			return ErrJobAborted
		}
		jn.onBin(bin, true)
		return nil
	}
	if blocking {
		if !es.cred.waitBelow() {
			return ErrJobAborted
		}
	}
	if jn.failed.Load() {
		return ErrJobAborted
	}
	es.cred.take()
	jn.mShuffleBytes.Add(bin.Bytes)
	jn.mShuffleKVs.Add(int64(len(bin.KVs)))
	return jn.rt.net.Send(transport.Message{
		From:    transport.NodeID(jn.node),
		To:      transport.NodeID(dest),
		Kind:    msgBin,
		Payload: bin,
		Size:    bin.Bytes,
	})
}

// flowCtx implements Context for user code running a flowlet on a node.
type flowCtx struct {
	jn *jobNode
	fs *flowletState
}

func (c *flowCtx) Node() int     { return c.jn.node }
func (c *flowCtx) NumNodes() int { return c.jn.nodes }
func (c *flowCtx) Service(name string) any {
	return c.jn.rt.services[name]
}

// blocking reports whether emits from this flowlet may block on flow
// control: only loaders block (their input is unbounded); other flowlets
// rely on the scheduler gate and may overshoot within one task.
func (c *flowCtx) blocking() bool { return c.fs.spec.Kind == KindLoader }

// emitOn routes one pair down one edge. size is the caller-computed
// kv.Size(): a pair fanned out to several edges or broadcast to every
// node is sized exactly once instead of once per destination.
func (c *flowCtx) emitOn(es *edgeState, kv KV, size int64) error {
	switch es.edge.Routing {
	case RouteLocal:
		return c.emitTo(es, c.jn.node, kv, size)
	case RouteBroadcast:
		return c.emitAll(es, kv, size)
	default:
		p := es.edge.Partitioner
		if p == nil {
			p = HashPartition
		}
		return c.emitTo(es, p(kv.Key, c.jn.nodes), kv, size)
	}
}

// emitAll sends one pair down one edge to every node.
func (c *flowCtx) emitAll(es *edgeState, kv KV, size int64) error {
	for n := 0; n < c.jn.nodes; n++ {
		if err := c.emitTo(es, n, kv, size); err != nil {
			return err
		}
	}
	return nil
}

// emitTo sends one pair down one edge to node dest.
func (c *flowCtx) emitTo(es *edgeState, dest int, kv KV, size int64) error {
	if c.jn.failed.Load() {
		return ErrJobAborted
	}
	if dest < 0 || dest >= c.jn.nodes {
		return fmt.Errorf("core: emit to invalid node %d", dest)
	}
	if dest != c.jn.node && es.edge.Routing == RouteLocal {
		// Completion counting trusts this: a local edge's consumer hears
		// only from its own node.
		return fmt.Errorf("core: node %d emits to node %d over local edge %q -> %q",
			c.jn.node, dest, c.fs.spec.Name, c.jn.flowlets[es.edge.To].spec.Name)
	}
	if bin := es.buf.add(dest, kv, size); bin != nil {
		return c.jn.sendBin(es, dest, bin, c.blocking())
	}
	return nil
}

// Emit implements Context.
func (c *flowCtx) Emit(kv KV) error {
	edges := c.jn.outBy[c.fs.spec.ID]
	if len(edges) == 0 {
		return fmt.Errorf("core: flowlet %q has no downstream edges", c.fs.spec.Name)
	}
	size := kv.Size()
	for _, es := range edges {
		if err := c.emitOn(es, kv, size); err != nil {
			return err
		}
	}
	return nil
}

func (c *flowCtx) findEdge(flowlet string) (*edgeState, error) {
	id := c.jn.graph.FlowletID(flowlet)
	if id < 0 {
		return nil, fmt.Errorf("core: unknown flowlet %q", flowlet)
	}
	for _, es := range c.jn.outBy[c.fs.spec.ID] {
		if es.edge.To == id {
			return es, nil
		}
	}
	return nil, fmt.Errorf("core: no edge %q -> %q", c.fs.spec.Name, flowlet)
}

// EmitTo implements Context.
func (c *flowCtx) EmitTo(flowlet string, kv KV) error {
	es, err := c.findEdge(flowlet)
	if err != nil {
		return err
	}
	return c.emitOn(es, kv, kv.Size())
}

// EmitToNode implements Context.
func (c *flowCtx) EmitToNode(flowlet string, node int, kv KV) error {
	es, err := c.findEdge(flowlet)
	if err != nil {
		return err
	}
	return c.emitTo(es, node, kv, kv.Size())
}

// EmitBroadcast implements Context.
func (c *flowCtx) EmitBroadcast(flowlet string, kv KV) error {
	es, err := c.findEdge(flowlet)
	if err != nil {
		return err
	}
	return c.emitAll(es, kv, kv.Size())
}

var _ Context = (*flowCtx)(nil)
