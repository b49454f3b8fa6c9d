package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
	"github.com/hamr-go/hamr/internal/vtime"
)

// ErrJobAborted is returned from emits once a job has failed; user code
// should propagate it.
var ErrJobAborted = errors.New("core: job aborted")

// jobNode is the per-node state of one running job: the whole flowlet
// graph is instantiated on every node (§2, unlike Dryad's subgraphs).
type jobNode struct {
	rt    *NodeRuntime
	graph *Graph
	jobID int64
	node  int
	nodes int

	// reg is the job-scoped metrics registry: everything this job does on
	// this node is accounted here and merged into the node registry only
	// at job end, so JobResult.Metrics holds this job's deltas alone even
	// when another Run overlaps it on the same runtime, and cluster totals
	// still add up.
	reg *metrics.Registry

	flowlets []*flowletState
	edges    []*edgeState
	outBy    [][]*edgeState // producer-side edges indexed by flowlet id

	mem *MemoryManager

	failed  atomic.Bool
	errOnce sync.Once
	// err is atomic because a node whose flowlets all finished is done —
	// and may be read by Job.Wait — before another node's failure reaches
	// it and records the error here.
	err atomic.Pointer[error]

	doneOnce  sync.Once
	doneCh    chan struct{}
	finishedN atomic.Int32 // flowlets finished on this node
	started   time.Time

	// tr/traceTag record per-task spans when tracing is on. traceTag is
	// the tracer's per-run job index ("j0", ...), empty when tr is nil.
	tr       *trace.Tracer
	traceTag string

	// Hot-path metric handles, resolved once at construction. The emit
	// and bin-delivery loops fire these per bin (or per KV batch); a
	// string-keyed registry lookup there costs a map access and string
	// hash per event, which profiles as real overhead at bin rates.
	mBinsSent     *metrics.Counter
	mBinsRecv     *metrics.Counter
	mFlowGated    *metrics.Counter
	mShuffleBytes *metrics.Counter
	mShuffleKVs   *metrics.Counter
	mRefires      *metrics.Counter
}

// edgeState is the per-node producer-side state of one graph edge.
type edgeState struct {
	idx  int
	edge Edge
	buf  *binBuffer
	cred *credit
}

type prStripe struct {
	mu    sync.Mutex
	state map[string]any
	// charged is this stripe's accumulated contention cost (under mu) —
	// the serialized time the stripe's lock would have imposed. Only the
	// virtual-clock overlap model reads it.
	charged time.Duration
}

// flowletState is the per-node state of one flowlet: lifecycle counters
// (Dormant -> Ready -> Complete), input accounting, the flow-control gate,
// and kind-specific accumulation.
type flowletState struct {
	spec *FlowletSpec
	jn   *jobNode

	upNeeded int // completions to hear: per distinct upstream, 1 if it is localOnly, else numNodes

	mu         sync.Mutex
	upReceived int
	enqueued   int64
	processed  int64
	pending    []*Bin // bins gated by flow control
	finishing  bool
	finished   bool

	// loader
	splitsAssigned int
	splitsDone     int
	splitsSet      bool

	// partial reduce
	stripes    []prStripe
	contention *metrics.Timer // pre-resolved "partial.contention" handle
	// Virtual-clock overlap model for striped contention (see
	// chargeContention): total charged cost, the hottest stripe's total,
	// and how much has already advanced the node lane.
	prSum      atomic.Int64
	prHot      atomic.Int64
	prAdvanced atomic.Int64

	// reduce
	acc *accumulator
	// accOnce opens the traced accumulate window — the interval from the
	// first pair accumulated on this node to the start of the grouped
	// reduce — whose overlap with still-running loader spans is the
	// engine's shuffle/reduce overlap made visible. The last bin's
	// processor synchronizes with finishReduce through fs.mu, so reading
	// accSpan there is ordered after the Once completes.
	accOnce sync.Once
	accSpan trace.Span

	// sink
	sinkMu sync.Mutex

	finishedAt time.Duration // offset from job start when Complete was reached
}

// Status is the paper's three-state flowlet lifecycle.
type Status int

const (
	// StatusDormant means the flowlet has not yet received all required
	// data.
	StatusDormant Status = iota
	// StatusReady means the flowlet has data to process or is processing.
	StatusReady
	// StatusComplete means no more data will arrive from upstream and all
	// local work is done.
	StatusComplete
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusDormant:
		return "dormant"
	case StatusReady:
		return "ready"
	case StatusComplete:
		return "complete"
	default:
		return "unknown"
	}
}

// status derives the flowlet's lifecycle state on this node.
func (fs *flowletState) status() Status {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.finished {
		return StatusComplete
	}
	if fs.spec.Kind == KindLoader {
		return StatusReady // only loaders are ready when a job starts (§2)
	}
	if fs.spec.Kind == KindReduce {
		// A reduce runs its grouped work only once every upstream flowlet
		// has completed on every node (§2: "must wait until all its
		// upstream flowlets complete").
		if fs.upReceived >= fs.upNeeded {
			return StatusReady
		}
		return StatusDormant
	}
	if fs.enqueued > fs.processed || fs.upReceived >= fs.upNeeded {
		return StatusReady
	}
	return StatusDormant
}

func newJobNode(rt *NodeRuntime, graph *Graph, jobID int64, numNodes int) *jobNode {
	reg := metrics.NewRegistry()
	jn := &jobNode{
		rt:     rt,
		graph:  graph,
		jobID:  jobID,
		node:   rt.id,
		nodes:  numNodes,
		reg:    reg,
		mem:    NewMemoryManager(rt.cfg.MemoryBudget),
		doneCh: make(chan struct{}),

		mBinsSent:     reg.Counter("bins.sent"),
		mBinsRecv:     reg.Counter("bins.recv"),
		mFlowGated:    reg.Counter("flow.gated"),
		mShuffleBytes: reg.Counter("shuffle.bytes"),
		mShuffleKVs:   reg.Counter("shuffle.kvs"),
		mRefires:      reg.Counter("flowlet.refires"),

		tr: rt.sub.Trace,
	}
	jn.traceTag = jn.tr.JobTag(jobID)
	jn.outBy = make([][]*edgeState, len(graph.Flowlets()))
	for i, e := range graph.Edges() {
		es := &edgeState{
			idx:  i,
			edge: e,
			buf:  newBinBuffer(numNodes, rt.bins, maxBinBytes),
			cred: newCredit(rt.cfg.FlowControlWindow),
		}
		jn.edges = append(jn.edges, es)
		jn.outBy[e.From] = append(jn.outBy[e.From], es)
	}
	rt.bins.reserve(len(jn.edges) * (numNodes + rt.cfg.FlowControlWindow))
	for _, spec := range graph.Flowlets() {
		fs := &flowletState{spec: spec, jn: jn}
		ups := map[int]bool{}
		for _, u := range graph.Upstream(spec.ID) {
			if ups[u] {
				continue
			}
			ups[u] = true
			// Completion is counted only where data can come from: an
			// upstream whose every out-edge is local feeds this node alone.
			if jn.localOnly(u) {
				fs.upNeeded++
			} else {
				fs.upNeeded += numNodes
			}
		}
		switch spec.Kind {
		case KindPartialReduce:
			n := rt.cfg.PartialStripes
			if spec.SerializeUpdates {
				n = 1
			}
			fs.stripes = make([]prStripe, n)
			for i := range fs.stripes {
				fs.stripes[i].state = make(map[string]any)
			}
			fs.contention = reg.Timer("partial.contention")
		case KindReduce:
			prefix := fmt.Sprintf("job%d/reduce-%d", jobID, spec.ID)
			fs.acc = newAccumulator(jn.mem, rt.disk, prefix, reg)
		}
		jn.flowlets = append(jn.flowlets, fs)
	}
	return jn
}

// maxRefires bounds re-fires of one crashed flowlet task.
const maxRefires = 3

// maxBinBytes seals a bin whose pairs reach this many modeled bytes before
// it holds BinSize of them.
const maxBinBytes = 128 << 10

// fireTask launches one fine-grain flowlet task under the fault injector.
// The injector may crash the task at its start — before fn has run, so
// before any side effects — in which case the task is re-fired with the
// next attempt number. Re-fires are bounded by maxRefires; an exhausted
// task returns the injected error, which aborts the job through the normal
// failure path with the original cause intact. site must be a
// job-relative identity (flowlet name + node + task index) so the same
// seed crashes the same tasks on every run.
func (jn *jobNode) fireTask(site string, fn func() error) error {
	inj := jn.rt.sub.Faults
	for attempt := 0; ; attempt++ {
		if err := inj.FlowletFire(site, attempt); err != nil {
			if attempt >= maxRefires {
				return err
			}
			jn.mRefires.Inc()
			if jn.tr.Enabled() {
				jn.tr.Instant(jn.node, jn.traceTag,
					fmt.Sprintf("%s/refire:%s:%d", jn.traceTag, site, attempt), "retry", 0)
			}
			continue
		}
		return fn()
	}
}

// start assigns loader splits to this node and kicks off execution.
//
// Loader tasks run on dedicated goroutines admitted by the node's loader
// semaphore rather than on pool workers: loaders are the one task kind
// allowed to block on flow control (the paper's "decrease the number of
// concurrent loader tasks" valve, §2), and a blocked task must never be
// able to starve the worker pool that processes the bins whose acks would
// unblock it.
func (jn *jobNode) start(splits map[int][]Split) {
	for _, fs := range jn.flowlets {
		if fs.spec.Kind != KindLoader {
			continue
		}
		fs := fs
		ss := splits[fs.spec.ID]
		fs.mu.Lock()
		fs.splitsAssigned = len(ss)
		fs.splitsSet = true
		fs.mu.Unlock()
		if len(ss) == 0 {
			jn.maybeFinish(fs)
			continue
		}
		go func() {
			for i, sp := range ss {
				i, sp := i, sp
				jn.rt.loaderSem.Acquire()
				go func() {
					defer jn.rt.loaderSem.Release()
					if !jn.failed.Load() {
						site := fmt.Sprintf("split:%s:%d:%d", fs.spec.Name, jn.node, i)
						var sp2 trace.Span
						if jn.tr.Enabled() {
							sp2 = jn.tr.Start(jn.node, jn.traceTag, jn.traceTag+"/"+site, "load", "disk")
						}
						err := jn.fireTask(site, func() error {
							ctx := &flowCtx{jn: jn, fs: fs}
							return fs.spec.Loader.Load(sp, ctx)
						})
						sp2.End()
						if err != nil && !errors.Is(err, ErrJobAborted) {
							jn.fail(fmt.Errorf("loader %q on node %d: %w", fs.spec.Name, jn.node, err))
						}
						jn.reg.Inc("loader.splits")
					}
					jn.loaderSplitDone(fs)
				}()
			}
		}()
	}
}

func (jn *jobNode) loaderSplitDone(fs *flowletState) {
	fs.mu.Lock()
	fs.splitsDone++
	fs.mu.Unlock()
	jn.maybeFinish(fs)
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

// onBin receives a bin for a flowlet on this node. Local bins are
// processed inline by the emitting task (operator chaining); remote bins
// are gated by the destination flowlet's flow-control state and otherwise
// dispatched to the worker pool. A bin that names no edge of this job fails
// it: its data would be lost, and so might the completion it carries.
func (jn *jobNode) onBin(bin *Bin, local bool) {
	if bin.Edge < 0 || bin.Edge >= len(jn.edges) || bin.Flowlet != jn.edges[bin.Edge].edge.To {
		jn.rt.binsDropped.Inc()
		jn.fail(fmt.Errorf("core: node %d got a bin for job %d on edge %d to flowlet %d, which the job does not have (%d kvs, from node %d)",
			jn.node, bin.Job, bin.Edge, bin.Flowlet, len(bin.KVs), bin.From))
		bin.release()
		return
	}
	fs := jn.flowlets[bin.Flowlet]
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
		// Ack frees the producer's flow-control credit. It is queued before
		// processed++, so whoever finishes this node's last flowlet — and
		// flushes the coalescer then — finds it queued.
		_ = jn.rt.send(transport.Message{
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

// prScratch is the reusable working set for stripe-grouping one bin: a
// per-KV stripe index, per-stripe counts/offsets, and a stripe-ordered
// copy of the bin's pairs (a counting sort). Pooling it removes the
// map[int][]KV plus per-stripe slice allocations the fold used to make
// for every bin. Pool entries are not cleared between uses: at most a
// few are live at once (one per concurrently folding worker) and each
// holds at most one bin's worth of pairs.
type prScratch struct {
	idx    []int32
	counts []int32
	kvs    []KV
}

var prScratchPool = sync.Pool{New: func() any { return new(prScratch) }}

func (sc *prScratch) grow(nkvs, nstripes int) {
	if cap(sc.idx) < nkvs {
		sc.idx = make([]int32, nkvs)
		sc.kvs = make([]KV, nkvs)
	}
	sc.idx = sc.idx[:nkvs]
	sc.kvs = sc.kvs[:nkvs]
	if cap(sc.counts) < nstripes {
		sc.counts = make([]int32, nstripes)
	}
	sc.counts = sc.counts[:nstripes]
	for i := range sc.counts {
		sc.counts[i] = 0
	}
}

// applyPartialBin folds one bin into the partial-reduce state. Updates
// are grouped by lock stripe; each stripe batch is applied while holding
// that stripe's lock, charging the modeled contended-update cost there
// (§5.2). A skewed key space collapses onto few stripes and serializes;
// a wide key space spreads across stripes and overlaps.
func (fs *flowletState) applyPartialBin(bin *Bin) error {
	nstripes := len(fs.stripes)
	if nstripes == 1 {
		return fs.applyStripeBatch(&fs.stripes[0], bin.KVs)
	}
	sc := prScratchPool.Get().(*prScratch)
	sc.grow(len(bin.KVs), nstripes)
	for i, kv := range bin.KVs {
		idx := int32(stripeOf(kv.Key, nstripes))
		sc.idx[i] = idx
		sc.counts[idx]++
	}
	// counts -> start offsets, then scatter pairs into stripe order.
	var start int32
	for s, c := range sc.counts {
		sc.counts[s] = start
		start += c
	}
	for i, kv := range bin.KVs {
		pos := sc.counts[sc.idx[i]]
		sc.kvs[pos] = kv
		sc.counts[sc.idx[i]] = pos + 1
	}
	// After the scatter, counts[s] is the END offset of stripe s.
	var err error
	start = 0
	for s := 0; s < nstripes; s++ {
		end := sc.counts[s]
		if end > start {
			if err = fs.applyStripeBatch(&fs.stripes[s], sc.kvs[start:end]); err != nil {
				break
			}
		}
		start = end
	}
	prScratchPool.Put(sc)
	return err
}

// applyStripeBatch applies one stripe's batch of updates under that
// stripe's lock, charging the modeled contention cost there (§5.2). The
// model is deliberately preserved by the emit-path optimizations: the
// charge is real serialization on the stripe, only the harness's own
// allocations and lookups around it were engineered away.
func (fs *flowletState) applyStripeBatch(st *prStripe, kvs []KV) error {
	cost := fs.jn.rt.cfg.ContentionCost
	if fs.spec.SerializeUpdates {
		// The paper's fix (§5.2): a single writer per variable avoids the
		// cache-line fight; only the base update cost remains.
		cost /= 10
	}
	weight := len(kvs)
	if cost > 0 {
		if coster, ok := fs.spec.Partial.(UpdateCoster); ok {
			weight = 0
			for _, kv := range kvs {
				w := coster.UpdateWeight(kv.Value)
				if w < 1 {
					w = 1
				}
				weight += w
			}
		}
	}
	st.mu.Lock()
	if cost > 0 {
		d := cost * time.Duration(weight)
		fs.contention.Observe(d)
		fs.chargeContention(st, d)
	}
	for _, kv := range kvs {
		old, had := st.state[kv.Key]
		var oldSize int64
		if had {
			oldSize = ValueSize(old) + int64(len(kv.Key))
		}
		next, err := fs.spec.Partial.Update(kv.Key, old, kv.Value)
		if err != nil {
			st.mu.Unlock()
			return err
		}
		st.state[kv.Key] = next
		fs.jn.mem.ForceReserve(ValueSize(next) + int64(len(kv.Key)) - oldSize)
	}
	st.mu.Unlock()
	return nil
}

// chargeContention pays one stripe batch's modeled contention cost d,
// called with st.mu held. Under the real clock the charge sleeps right
// here, so the stripe lock serializes contenders — the mechanism the
// §5.2 model relies on: few hot stripes convoy, many stripes overlap.
//
// A virtual clock cannot reproduce that overlap by summing charges onto
// the node lane (that serializes everything, overcharging wide key
// spaces), so it models it explicitly: the node's contention elapsed is
// max(hottest stripe's total, node total / workers) — the hot stripe
// paces a skewed key space, the worker pool bounds overlap of a wide
// one. Full cost still lands in the Contention busy accounting. Both
// inputs are monotone sums of atomic adds, so the final lane advance is
// scheduling-independent and deterministic.
func (fs *flowletState) chargeContention(st *prStripe, d time.Duration) {
	clk := fs.jn.rt.sub.Clock
	vc, ok := clk.(*vtime.VirtualClock)
	if !ok {
		clk.Charge(fs.jn.rt.id, vtime.Contention, d)
		return
	}
	vc.AddBusy(vtime.Contention, d)
	st.charged += d
	hot := fs.prHot.Load()
	for st.charged > time.Duration(hot) && !fs.prHot.CompareAndSwap(hot, int64(st.charged)) {
		hot = fs.prHot.Load()
	}
	sum := fs.prSum.Add(int64(d))
	workers := int64(fs.jn.rt.cfg.Workers)
	if workers < 1 {
		workers = 1
	}
	target := fs.prHot.Load()
	if s := sum / workers; s > target {
		target = s
	}
	for {
		cur := fs.prAdvanced.Load()
		if target <= cur {
			return
		}
		if fs.prAdvanced.CompareAndSwap(cur, target) {
			vc.AdvanceLane(fs.jn.rt.id, time.Duration(target-cur))
			return
		}
	}
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
		// The acks of this node's last bins leave before it reports the job
		// done, so the job's traffic is on the fabric — and priced — by the
		// time the job ends, not at the coalescer's age bound after it.
		jn.rt.flushNet()
		jn.signalDone()
	}
}

// flushFinal sends the flowlet's partially filled output bins and tells
// every other node that can hear from it that it is complete here (§2):
// none when it is localOnly or has no out-edge, each other node once
// otherwise — on the last bin flushed to that node, on any edge (Bin.Last),
// or in one unicast marker when no bin is left for it. Either follows this
// node's earlier bins to it through the destination's FIFO (coalescer and
// inbox alike).
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
			_ = jn.rt.send(transport.Message{
				From:    transport.NodeID(jn.node),
				To:      transport.NodeID(dest),
				Kind:    msgComplete,
				Payload: completeMsg{Job: jn.jobID, Flowlet: fs.spec.ID, Node: jn.node},
				Size:    16,
			})
		}
	}
	if tell {
		// The final bins and markers leave now rather than at the
		// coalescer's age bound.
		jn.rt.flushNet()
	}
}

// sendFinal sends one final bin, waiting for flow-control credit; an abort
// it runs into is already the job's failure.
func (jn *jobNode) sendFinal(es *edgeState, dest int, bin *Bin) {
	if err := jn.sendBin(es, dest, bin, true); err != nil && !errors.Is(err, ErrJobAborted) {
		jn.fail(err)
	}
}

// finishPartial emits every key's folded state (partial reduce "does not
// output until the completion of its upstream flowlets", §2). Stripes are
// processed as fine-grain pool tasks; the finishing goroutine honours the
// flow-control window between stripes.
func (jn *jobNode) finishPartial(fs *flowletState) error {
	ctx := &flowCtx{jn: jn, fs: fs}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	inflight := par.NewSemaphore(jn.rt.cfg.Workers * 2)
	for i := range fs.stripes {
		st := &fs.stripes[i]
		if len(st.state) == 0 {
			continue
		}
		if !jn.waitOutBelow(fs) {
			break
		}
		site := fmt.Sprintf("pstripe:%s:%d:%d", fs.spec.Name, jn.node, i)
		wg.Add(1)
		inflight.Acquire()
		jn.rt.pool.Submit(func() {
			defer wg.Done()
			defer inflight.Release()
			var tsp trace.Span
			if jn.tr.Enabled() {
				tsp = jn.tr.Start(jn.node, jn.traceTag, jn.traceTag+"/"+site, "partial", "cpu")
				defer tsp.End()
			}
			err := jn.fireTask(site, func() error {
				for k, v := range st.state {
					if jn.failed.Load() {
						return nil
					}
					if err := fs.spec.Partial.Finish(k, v, ctx); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		})
	}
	wg.Wait()
	return firstErr
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
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	// A batch holds at most ReduceTaskKeys groups and never more than the
	// pairs still to come, so a node left with a handful of keys does not
	// allocate a full batch for them.
	remaining := fs.acc.Count()
	newBatch := func() []group {
		return make([]group, 0, min(int64(jn.rt.cfg.ReduceTaskKeys), remaining))
	}
	batch := newBatch()
	// Bound in-flight batches so a huge key space does not re-materialize
	// in memory while tasks queue.
	inflight := par.NewSemaphore(jn.rt.cfg.Workers * 2)
	batchIdx := 0
	submit := func(b []group) bool {
		if !jn.waitOutBelow(fs) {
			return false
		}
		site := fmt.Sprintf("rbatch:%s:%d:%d", fs.spec.Name, jn.node, batchIdx)
		batchIdx++
		wg.Add(1)
		inflight.Acquire()
		jn.rt.pool.Submit(func() {
			defer wg.Done()
			defer inflight.Release()
			var tsp trace.Span
			if jn.tr.Enabled() {
				tsp = jn.tr.Start(jn.node, jn.traceTag, jn.traceTag+"/"+site, "reduce", "cpu")
				defer tsp.End()
			}
			err := jn.fireTask(site, func() error {
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
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		})
		return true
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
	wg.Wait()
	if err != nil {
		return err
	}
	return firstErr
}

// sendBin stamps and ships one sealed bin to dest, giving up ownership of
// it (an aborted send leaves the slab to the GC). Local destinations are
// processed inline (operator chaining) and take no credit; remote sends
// take one — blocking first if the caller runs on a plain goroutine or a
// loader task (blocking=true), overshooting otherwise.
func (jn *jobNode) sendBin(es *edgeState, dest int, bin *Bin, blocking bool) error {
	bin.Job, bin.Edge, bin.Flowlet, bin.From = jn.jobID, es.idx, es.edge.To, jn.node
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
	return jn.rt.send(transport.Message{
		From:    transport.NodeID(jn.node),
		To:      transport.NodeID(dest),
		Kind:    msgBin,
		Payload: bin,
		Size:    bin.Bytes,
	})
}

// fail aborts the job on this node and notifies every other node.
func (jn *jobNode) fail(err error) {
	jn.errOnce.Do(func() {
		jn.err.Store(&err)
		jn.failed.Store(true)
		for _, es := range jn.edges {
			es.cred.abort()
		}
		fm := failMsg{Job: jn.jobID, Err: err.Error(), Canceled: errors.Is(err, ErrJobCanceled)}
		var fe *faults.Error
		if errors.As(err, &fe) {
			fm.FaultOp, fm.FaultSite = fe.Op, fe.Site
		}
		_ = jn.rt.send(transport.Message{
			From:    transport.NodeID(jn.node),
			To:      transport.Broadcast,
			Kind:    msgFail,
			Payload: fm,
			Size:    int64(len(err.Error())),
		})
		jn.signalDone()
	})
}

// remoteError is a failure relayed from another node: the message is the
// remote error's full text, the cause (when the failure was an injected
// fault) keeps errors.Is matching across the fabric.
type remoteError struct {
	msg   string
	cause error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.cause }

func (jn *jobNode) onRemoteFail(fm failMsg) {
	jn.errOnce.Do(func() {
		var err error
		switch {
		case fm.FaultOp != "":
			err = &remoteError{msg: fm.Err, cause: &faults.Error{Op: fm.FaultOp, Site: fm.FaultSite}}
		case fm.Canceled:
			// A relayed cancellation keeps its typed cause, the same
			// contract FaultOp/FaultSite give injected faults: errors.Is
			// still matches ErrJobCanceled after the abort crossed nodes.
			err = &remoteError{msg: fm.Err, cause: ErrJobCanceled}
		default:
			err = errors.New(fm.Err)
		}
		jn.err.Store(&err)
		jn.failed.Store(true)
		for _, es := range jn.edges {
			es.cred.abort()
		}
		jn.signalDone()
	})
}

func (jn *jobNode) signalDone() {
	jn.doneOnce.Do(func() { close(jn.doneCh) })
}

// Error returns the job error recorded on this node, if any.
func (jn *jobNode) Error() error {
	if p := jn.err.Load(); p != nil {
		return *p
	}
	return nil
}

// totalStalls sums flow-control stalls across this node's edges.
func (jn *jobNode) totalStalls() int64 {
	var n int64
	for _, es := range jn.edges {
		n += es.cred.Stalls()
	}
	return n
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
	if c.jn.failed.Load() {
		return ErrJobAborted
	}
	switch es.edge.Routing {
	case RouteLocal:
		return c.emitTo(es, c.jn.node, kv, size)
	case RouteBroadcast:
		for n := 0; n < c.jn.nodes; n++ {
			if err := c.emitTo(es, n, kv, size); err != nil {
				return err
			}
		}
		return nil
	default:
		p := es.edge.Partitioner
		if p == nil {
			p = HashPartition
		}
		return c.emitTo(es, p(kv.Key, c.jn.nodes), kv, size)
	}
}

func (c *flowCtx) emitTo(es *edgeState, dest int, kv KV, size int64) error {
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
	if c.jn.failed.Load() {
		return ErrJobAborted
	}
	return c.emitTo(es, node, kv, kv.Size())
}

// EmitBroadcast implements Context.
func (c *flowCtx) EmitBroadcast(flowlet string, kv KV) error {
	es, err := c.findEdge(flowlet)
	if err != nil {
		return err
	}
	if c.jn.failed.Load() {
		return ErrJobAborted
	}
	size := kv.Size()
	for n := 0; n < c.jn.nodes; n++ {
		if err := c.emitTo(es, n, kv, size); err != nil {
			return err
		}
	}
	return nil
}

var _ Context = (*flowCtx)(nil)
