package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
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
	rt.bins.Reserve(len(jn.edges) * (numNodes + rt.cfg.FlowControlWindow))
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
			fs.acc = newAccumulator(jn.mem, rt.disk, rt.chunks, prefix, reg)
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

// fail aborts the job on this node and tells every other node why.
func (jn *jobNode) fail(err error) { jn.abort(err, true) }

// abort records err as the job's error on this node, once: the job is
// failed here, every flow-control credit is aborted and the node is done.
// relay broadcasts the failure to every other node first; a failure that
// arrived from another node is not sent on.
func (jn *jobNode) abort(err error, relay bool) {
	jn.errOnce.Do(func() {
		jn.err.Store(&err)
		jn.failed.Store(true)
		for _, es := range jn.edges {
			es.cred.abort()
		}
		if relay {
			fm := failMsg{Job: jn.jobID, Err: err.Error(), Canceled: errors.Is(err, ErrJobCanceled)}
			var fe *faults.Error
			if errors.As(err, &fe) {
				fm.FaultOp, fm.FaultSite = fe.Op, fe.Site
			}
			_ = jn.rt.net.Send(transport.Message{
				From:    transport.NodeID(jn.node),
				To:      transport.Broadcast,
				Kind:    msgFail,
				Payload: fm,
				Size:    int64(len(err.Error())),
			})
		}
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

// relayed rebuilds the error a failMsg carries.
func (fm failMsg) relayed() error {
	switch {
	case fm.FaultOp != "":
		return &remoteError{msg: fm.Err, cause: &faults.Error{Op: fm.FaultOp, Site: fm.FaultSite}}
	case fm.Canceled:
		// A relayed cancellation keeps its typed cause, the same contract
		// FaultOp/FaultSite give injected faults: errors.Is still matches
		// ErrJobCanceled after the abort crossed nodes.
		return &remoteError{msg: fm.Err, cause: ErrJobCanceled}
	default:
		return errors.New(fm.Err)
	}
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
