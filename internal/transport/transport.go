// Package transport provides the inter-node message fabric used by the
// HAMR runtime and the MapReduce baseline's shuffle.
//
// InMemNetwork is the one network: an in-process fabric for the simulated
// cluster, priced by a CostModel that stands in for the paper's FDR
// InfiniBand. Each destination node has a delivery queue drained by a
// dedicated goroutine, which charges a configurable latency + bandwidth
// cost before invoking the destination handler. Transfer prices the bytes
// that cross nodes without a handler (HDFS remote reads, shuffle fetches,
// key-value store access) the same way, on the same per-node ingress.
// Ingress is therefore serialized, which models the hot-receiver
// bottleneck the paper observes for skewed key spaces (§5.2,
// HistogramRatings). Every payload reaches its handler as the sender's own
// Go value; nothing is encoded.
//
// The node runtime sends every message straight to the network, so what
// the fabric counts and charges follows the data alone. A Coalescer
// (coalesce.go) can still wrap the network to pack small same-destination
// messages into one batch frame, which the network unpacks before invoking
// handlers; the benchmark's send probe is what builds one.
//
// Fabric engineering vs modeled cost: the send path is lock-free beyond
// the destination inbox (an atomically swapped immutable routing snapshot
// serves lookups), the inbox is a ring queue that does not retain its
// backing array the way a queue = queue[1:] slice did, and the delivery
// goroutine drains whole batches, charging the summed modeled delay in a
// single sleep. Latency and fault terms are charged per message; bytes
// are charged on each receiver's running byte total, truncated once, so a
// node's byte charges do not depend on how its bytes were cut into
// messages or batches. Only the engine's own overhead (lock acquisitions,
// wakeups, registry lookups, sleep syscalls) is amortized. See DESIGN.md
// §5 "internal/transport".
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/vtime"
)

// NodeID identifies a node in the cluster, in [0, N).
type NodeID int

// Broadcast may be used as Message.To to deliver to every registered node
// (including the sender).
//
// Broadcast delivery is best-effort: nodes whose inbox has been closed
// (network shutdown racing the send) are skipped rather than aborting the
// fan-out partway — a partial abort previously left some
// nodes with the message and some without, with no trace. Skipped
// deliveries are counted in the "net.dropped" counter.
const Broadcast NodeID = -1

// Message is one unit of communication. Size is the modeled wire size in
// bytes used by cost models; senders should set it to the approximate
// serialized size of Payload. The receiver gets the sender's Payload
// itself.
type Message struct {
	From    NodeID
	To      NodeID
	Kind    string
	Payload any
	Size    int64
}

// Handler consumes delivered messages. Handlers run on the network's
// delivery goroutine for the destination node and must not block for long.
type Handler func(msg Message)

// FaultHook lets a fault injector perturb delivery (see internal/faults).
// It is consulted once per delivered message and once per Transfer
// arriving at a node, and returns the simulated
// mishaps: retrans counts dropped-then-retransmitted copies, dups counts
// duplicates the fabric dedups by sequence number, extra is added latency.
// The fabric stays reliable — every message is still delivered exactly
// once — so the faults cost modeled time without perturbing application
// state.
type FaultHook interface {
	DeliveryFault(node int, size int64) (retrans, dups int, extra time.Duration)
}

// Network is the fabric interface: InMemNetwork implements it, and so do
// Coalescer, which wraps it.
type Network interface {
	// Register installs the handler for a node. Must be called before any
	// message is sent to that node.
	Register(node NodeID, h Handler) error
	// Send delivers msg asynchronously to msg.To's handler.
	Send(msg Message) error
	// Close shuts the network down, waiting for queued deliveries.
	Close() error
}

// Env is what a Network takes from the substrate around it; the zero value
// is the real clock with nothing else installed. Each Network has one Use
// that installs it, to be called once before the first Register: delivery
// goroutines read it without synchronization.
type Env struct {
	// Clock pays modeled delivery delays and injected wire delays on the
	// receiving node's lane.
	Clock vtime.Clock
	// Trace records a span per delivery batch with a positive modeled delay,
	// so zero-cost fabrics trace nothing and stay schedule-identical.
	Trace *trace.Tracer
	// Faults perturbs delivery. Leave it nil rather than storing a nil
	// pointer in it.
	Faults FaultHook
}

func (e Env) filled() Env {
	if e.Clock == nil {
		e.Clock = vtime.Real()
	}
	return e
}

// CostModel describes modeled link performance.
type CostModel struct {
	// Latency is charged once per message.
	Latency time.Duration
	// BytesPerSec is the per-receiver ingress bandwidth.
	BytesPerSec int64
	// TimeScale multiplies every modeled delay (0 treated as 1).
	TimeScale float64
}

// FDRInfiniBand resembles the paper's 4x FDR fabric (about 54 Gb/s per
// link; we model effective per-receiver ingress of ~4 GB/s with microsecond
// latency).
func FDRInfiniBand() CostModel {
	return CostModel{Latency: 2 * time.Microsecond, BytesPerSec: 4 << 30, TimeScale: 1}
}

// GigabitEthernet resembles a commodity 1 GbE fabric.
func GigabitEthernet() CostModel {
	return CostModel{Latency: 100 * time.Microsecond, BytesPerSec: 115 << 20, TimeScale: 1}
}

// Delay is the modeled time to move one message of size bytes over an idle
// link.
func (m CostModel) Delay(size int64) time.Duration {
	return m.latency() + vtime.ByteTime(size, m.BytesPerSec, m.TimeScale)
}

// latency is the per-message part of Delay.
func (m CostModel) latency() time.Duration { return vtime.Scale(m.Latency, m.TimeScale) }

// dispatch invokes h once per application message: a coalesced batch frame
// is unpacked in order and everything else passes straight through, so
// receivers never see the framing.
func dispatch(h Handler, msg Message) {
	if bp, ok := msg.Payload.(*BatchPayload); ok && msg.Kind == KindBatch {
		for i := range bp.Msgs {
			h(bp.Msgs[i])
		}
		return
	}
	h(msg)
}

// msgRing is a growable circular queue of messages. Unlike the previous
// queue = queue[1:] slice, popping never strands the backing array's head,
// and drained slots are zeroed so delivered payloads are released to the
// GC. Capacity stays at the high-water mark of queued-but-undelivered
// messages; sustained send/drain traffic does not grow it. Capacity is
// always a power of two so indexing is a mask, not a modulo.
type msgRing struct {
	buf  []Message
	head int
	n    int
}

func (r *msgRing) push(m Message) {
	if r.n == len(r.buf) {
		grown := make([]Message, max(16, 2*len(r.buf)))
		mask := len(r.buf) - 1
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&mask]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = m
	r.n++
}

// drainInto appends every queued message to dst, zeroes the vacated slots
// and empties the ring.
func (r *msgRing) drainInto(dst []Message) []Message {
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		idx := (r.head + i) & mask
		dst = append(dst, r.buf[idx])
		r.buf[idx] = Message{}
	}
	r.head, r.n = 0, 0
	return dst
}

type inbox struct {
	id      NodeID
	mu      sync.Mutex
	cond    *sync.Cond
	q       msgRing
	closed  bool
	handler Handler
	done    chan struct{}
	// ingress is the node's receive link: every modeled charge on its Net
	// lane — a delivered batch or a Transfer — is paid holding it, so on the
	// real clock two arrivals at one node queue instead of overlapping.
	ingress sync.Mutex
	// rxBytes is every byte the node has been charged for receiving, under
	// ingress: the running total its byte charges telescope over.
	rxBytes int64
	// inflight counts messages drained from the queue but not yet handed
	// to the handler, so QueueDepth reports undelivered messages even
	// while the delivery goroutine works through a batch.
	inflight atomic.Int64
	// deliveries numbers charged delivery batches for trace span IDs; only
	// the delivery goroutine touches it.
	deliveries int64
}

// enqueue appends msg to the inbox queue, reporting false if the inbox is
// closed. The delivery goroutine only waits when the queue is empty, so a
// wakeup is needed only on the empty -> non-empty transition.
func (ib *inbox) enqueue(msg Message) bool {
	ib.mu.Lock()
	if ib.closed {
		ib.mu.Unlock()
		return false
	}
	wasEmpty := ib.q.n == 0
	ib.q.push(msg)
	if wasEmpty {
		ib.cond.Signal()
	}
	ib.mu.Unlock()
	return true
}

// routeTable is an immutable routing snapshot. Send loads it with one
// atomic read and touches no lock shared with other senders; Register
// copies-on-write a new table (RCU-style) under regMu.
// Node ids resolve through a direct slice index.
type routeTable struct {
	dense []*inbox // index = NodeID, nil holes
	list  []*inbox // every registered inbox, for Broadcast
}

// maxNodeID bounds the dense slice so a stray huge id cannot make Register
// allocate gigabytes.
const maxNodeID = 1 << 16

func (rt *routeTable) lookup(id NodeID) *inbox {
	if id >= 0 && int(id) < len(rt.dense) {
		return rt.dense[id]
	}
	return nil
}

// clone copies the table so one entry can be added.
func (rt *routeTable) clone(extraDense int) *routeTable {
	next := &routeTable{
		dense: make([]*inbox, max(len(rt.dense), extraDense)),
		list:  make([]*inbox, len(rt.list)),
	}
	copy(next.dense, rt.dense)
	copy(next.list, rt.list)
	return next
}

// InMemNetwork is the in-process Network used by the simulated cluster.
//
// Send is lock-free up to the destination inbox: the routing snapshot is
// read with a single atomic load, and the only mutex taken is the
// destination's own queue lock. Metric handles are resolved once at
// construction, so the per-send cost is two atomic counter adds rather
// than two string-keyed registry lookups.
type InMemNetwork struct {
	routes atomic.Pointer[routeTable]
	regMu  sync.Mutex // serializes Register / Close
	model  CostModel
	reg    *metrics.Registry
	env    Env
	closed atomic.Bool

	mMsgs    *metrics.Counter
	mBytes   *metrics.Counter
	mDropped *metrics.Counter

	// pending counts accepted messages whose delivery (modeled delay
	// charge + handler dispatch) has not yet completed. It is raised
	// before the inbox enqueue so that no observer downstream of a
	// delivered copy can see the count exclude a sibling copy of the
	// same send. quiCond is signaled on the transition to zero.
	pending atomic.Int64
	quiMu   sync.Mutex
	quiCond *sync.Cond
}

// NewInMemNetwork creates a network with the given cost model, recording
// metrics into reg (nil allowed).
func NewInMemNetwork(model CostModel, reg *metrics.Registry) *InMemNetwork {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	n := &InMemNetwork{
		model: model,
		reg:   reg,
		env:   Env{}.filled(),

		mMsgs:    reg.Counter("net.msgs"),
		mBytes:   reg.Counter("net.bytes"),
		mDropped: reg.Counter("net.dropped"),
	}
	n.routes.Store(&routeTable{})
	n.quiCond = sync.NewCond(&n.quiMu)
	return n
}

// decPending retires delivered (or rejected) messages from the pending
// count, waking Quiesce waiters when the network drains.
func (n *InMemNetwork) decPending(k int64) {
	if k > 0 && n.pending.Add(-k) == 0 {
		n.quiMu.Lock()
		n.quiCond.Broadcast()
		n.quiMu.Unlock()
	}
}

// Quiesce blocks until every message accepted so far has been fully
// delivered: its modeled delay charged and its handler returned. It is
// the barrier a caller needs before reading a virtual clock — delivery
// runs on per-inbox goroutines, so without it a trailing end-of-job
// broadcast can still be charging receiver lanes after the job's own
// completion signal (itself one copy of that broadcast) was observed.
// Quiesce reports a quiet instant, not a quiet network: messages sent
// after it returns are not covered, so it is only meaningful once the
// workload that generates traffic has finished.
func (n *InMemNetwork) Quiesce() {
	n.quiMu.Lock()
	for n.pending.Load() != 0 {
		n.quiCond.Wait()
	}
	n.quiMu.Unlock()
}

// Use installs env (see Env).
func (n *InMemNetwork) Use(env Env) { n.env = env.filled() }

// Register implements Network.
func (n *InMemNetwork) Register(node NodeID, h Handler) error {
	n.regMu.Lock()
	defer n.regMu.Unlock()
	if n.closed.Load() {
		return errors.New("transport: register on closed network")
	}
	if node < 0 || node >= maxNodeID {
		return fmt.Errorf("transport: node id %d outside [0, %d)", node, maxNodeID)
	}
	cur := n.routes.Load()
	if cur.lookup(node) != nil {
		return fmt.Errorf("transport: node %d already registered", node)
	}
	ib := &inbox{id: node, handler: h, done: make(chan struct{})}
	ib.cond = sync.NewCond(&ib.mu)

	next := cur.clone(int(node) + 1)
	next.dense[node] = ib
	next.list = append(next.list, ib)
	n.routes.Store(next)
	go n.deliver(ib)
	return nil
}

// price is the per-message part of the modeled cost of a wire message of
// size bytes arriving at node: the model's latency, plus, under injected
// wire faults, one more Delay per retransmitted or duplicated copy and any
// extra latency. The payload itself still arrives exactly once, and pay
// charges its bytes.
func (n *InMemNetwork) price(node NodeID, size int64) time.Duration {
	d := n.model.latency()
	if hook := n.env.Faults; hook != nil {
		retrans, dups, extra := hook.DeliveryFault(int(node), size)
		d += time.Duration(retrans+dups)*n.model.Delay(size) + extra
	}
	return d
}

// priced reports whether an arrival with per-message part fixed and bytes
// bytes can cost anything; a free fabric charges and traces nothing.
func (n *InMemNetwork) priced(fixed time.Duration, bytes int64) bool {
	return fixed > 0 || (bytes > 0 && n.model.BytesPerSec > 0)
}

// pay charges fixed plus the byte term of bytes more arriving at ib's node
// to its Net lane, through its ingress. The byte
// term telescopes over the node's running total, so its byte charges sum
// to the ByteTime of all it received, however the bytes were cut.
func (n *InMemNetwork) pay(ib *inbox, fixed time.Duration, bytes int64) {
	ib.ingress.Lock()
	defer ib.ingress.Unlock()
	m := n.model
	before := vtime.ByteTime(ib.rxBytes, m.BytesPerSec, m.TimeScale)
	ib.rxBytes += bytes
	d := fixed + vtime.ByteTime(ib.rxBytes, m.BytesPerSec, m.TimeScale) - before
	if d > 0 {
		n.env.Clock.Charge(int(ib.id), vtime.Net, d)
	}
}

// deliver drains one node's inbox. The whole pending batch is taken in a
// single critical section and charged with one sleep covering the batch:
// each message's latency and fault terms, and the batch's bytes on the
// node's running byte total.
func (n *InMemNetwork) deliver(ib *inbox) {
	defer close(ib.done)
	var batch []Message
	for {
		ib.mu.Lock()
		for ib.q.n == 0 && !ib.closed {
			ib.cond.Wait()
		}
		if ib.q.n == 0 { // closed and drained
			ib.mu.Unlock()
			return
		}
		batch = ib.q.drainInto(batch[:0])
		ib.inflight.Store(int64(len(batch)))
		ib.mu.Unlock()

		var fixed time.Duration
		var bytes int64
		for i := range batch {
			fixed += n.price(ib.id, batch[i].Size)
			bytes += batch[i].Size
		}
		if n.priced(fixed, bytes) {
			var sp trace.Span // stays inert when tracing is off
			if t := n.env.Trace; t != nil {
				ib.deliveries++
				sp = t.Start(int(ib.id), "",
					fmt.Sprintf("net:rx%d:%d", ib.id, ib.deliveries), "deliver", "net")
			}
			n.pay(ib, fixed, bytes)
			sp.EndBytes(bytes)
		}
		for i := range batch {
			dispatch(ib.handler, batch[i])
			batch[i] = Message{} // release payload before the next wait
		}
		ib.inflight.Store(0)
		n.decPending(int64(len(batch)))
	}
}

// Send implements Network. Sends to an unregistered node fail; a unicast
// to a node whose inbox closed mid-flight fails too. Broadcast is
// best-effort (see Broadcast).
func (n *InMemNetwork) Send(msg Message) error {
	if n.closed.Load() {
		return errors.New("transport: send on closed network")
	}
	rt := n.routes.Load()
	if msg.To == Broadcast {
		// Raise pending for every copy before enqueuing any, so a
		// recipient acting on its copy cannot observe a count that
		// misses a sibling copy still waiting in another inbox.
		n.pending.Add(int64(len(rt.list)))
		var delivered int64
		for _, ib := range rt.list {
			if ib.enqueue(msg) {
				delivered++
			} else {
				n.mDropped.Inc()
				n.decPending(1)
			}
		}
		n.mMsgs.Add(delivered)
		n.mBytes.Add(msg.Size * delivered)
		return nil
	}
	ib := rt.lookup(msg.To)
	if ib == nil {
		return fmt.Errorf("transport: unknown node %d", msg.To)
	}
	n.pending.Add(1)
	if !ib.enqueue(msg) {
		n.decPending(1)
		return errors.New("transport: send to closed node")
	}
	n.mMsgs.Inc()
	n.mBytes.Add(msg.Size)
	return nil
}

// Transfer prices a payload-less move of bytes from one node to another —
// an HDFS remote block read, a shuffle fetch, a key-value store access —
// exactly as a delivered message of that size is priced, and pays it in
// the caller's goroutine on the receiver's ingress, where it queues with
// the bins arriving there. A transfer to self is free; one to a node with
// no inbox moves nothing and counts in net.dropped.
func (n *InMemNetwork) Transfer(from, to NodeID, bytes int64) {
	if from == to {
		return
	}
	ib := n.routes.Load().lookup(to)
	if ib == nil {
		n.mDropped.Inc()
		return
	}
	n.mMsgs.Inc()
	n.mBytes.Add(bytes)
	if fixed := n.price(to, bytes); n.priced(fixed, bytes) {
		n.pay(ib, fixed, bytes)
	}
}

// QueueDepth returns the number of undelivered messages for a node
// (queued plus drained-but-not-yet-handled); used by tests and by
// flow-control diagnostics. Coalesced batches count as one queued frame,
// matching what the delivery goroutine sees.
func (n *InMemNetwork) QueueDepth(node NodeID) int {
	ib := n.routes.Load().lookup(node)
	if ib == nil {
		return 0
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return ib.q.n + int(ib.inflight.Load())
}

// queueCap reports the inbox ring's backing capacity (tests: the ring must
// not grow without bound under sustained send/drain).
func (n *InMemNetwork) queueCap(node NodeID) int {
	ib := n.routes.Load().lookup(node)
	if ib == nil {
		return 0
	}
	ib.mu.Lock()
	defer ib.mu.Unlock()
	return len(ib.q.buf)
}

// Close implements Network. It waits for all queued messages to be
// delivered.
func (n *InMemNetwork) Close() error {
	n.regMu.Lock()
	if n.closed.Swap(true) {
		n.regMu.Unlock()
		return nil
	}
	rt := n.routes.Load()
	n.regMu.Unlock()
	for _, ib := range rt.list {
		ib.mu.Lock()
		ib.closed = true
		ib.cond.Broadcast()
		ib.mu.Unlock()
		<-ib.done
	}
	return nil
}

var _ Network = (*InMemNetwork)(nil)
