package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/trace"
)

var jobCounter atomic.Int64

// Typed job-path sentinels. Callers match them with errors.Is: the
// sentinels survive wrapping on the driver and — via the abort broadcast's
// failMsg — relaying across nodes.
var (
	// ErrJobCanceled reports a job stopped by its caller — a canceled or
	// expired context — rather than by its own code failing.
	ErrJobCanceled = errors.New("core: job canceled")
	// ErrNoNodes reports a run attempted over zero node runtimes.
	ErrNoNodes = errors.New("core: no node runtimes")
	// ErrGraphInvalid wraps graph validation failures (missing loader,
	// dangling flowlets, cycles, ...).
	ErrGraphInvalid = errors.New("core: invalid graph")
)

// FlowletStat summarizes one flowlet's execution across the cluster: how
// many bins it consumed and when it reached Complete on the last node —
// the observable trace of the Dormant -> Ready -> Complete lifecycle.
type FlowletStat struct {
	Name string
	Kind Kind
	// BinsIn is the number of input bins delivered cluster-wide.
	BinsIn int64
	// LoaderSplits is the number of splits executed (loaders only).
	LoaderSplits int
	// CompletedAt is the offset from job start at which the flowlet
	// completed on the last node.
	CompletedAt time.Duration
}

// JobResult reports a completed job's outcome.
type JobResult struct {
	// Job is the engine-assigned job id.
	Job int64
	// Duration is wall-clock execution time (submission to completion).
	Duration time.Duration
	// Stalls counts flow-control stalls across all nodes and edges.
	Stalls int64
	// Gated counts bins whose scheduling was deferred by flow control.
	Gated int64
	// Metrics is this job's own metric deltas, aggregated across nodes.
	// Node runtimes are long-lived and may host overlapping Runs, so every
	// jobNode accounts into a job-scoped registry that is merged into the
	// node registry (and into this snapshot) only at job end: cluster
	// totals still add up while per-job figures stay exact.
	Metrics metrics.Snapshot
	// SplitsPerNode records how many loader splits each node executed.
	SplitsPerNode []int
	// Flowlets holds per-flowlet execution statistics in graph order.
	Flowlets []FlowletStat
}

// Timeline renders the per-flowlet completion trace, one line per
// flowlet in graph order.
func (r *JobResult) Timeline() string {
	var sb strings.Builder
	for _, fs := range r.Flowlets {
		fmt.Fprintf(&sb, "%-20s %-14s bins=%-6d splits=%-4d complete@%v\n",
			fs.Name, fs.Kind, fs.BinsIn, fs.LoaderSplits, fs.CompletedAt.Round(time.Microsecond))
	}
	return sb.String()
}

// Job is one planned execution of a graph across the node runtimes, the
// staged form of Run: NewJob validates the graph, plans loader splits and
// registers per-node state; Start kicks off execution; Wait blocks until
// completion; Abort stops a running (or not-yet-started) job through the
// engine's failure path. Run composes the stages; a caller that cancels
// drives them individually so it can Abort between Start and Wait.
type Job struct {
	id    int64
	graph *Graph
	nodes []*NodeRuntime
	jns   []*jobNode

	assignment    map[int]map[int][]Split
	splitsPerNode []int

	jsp     trace.Span
	startT  time.Time
	started atomic.Bool

	waitOnce sync.Once
	res      *JobResult
	err      error
}

// NewJob validates and plans a job without starting it. The graph is
// deployed whole on every node; loader splits are planned on the driver
// and assigned preferring each split's local node (§3.3), falling back to
// least-loaded round-robin.
func NewJob(graph *Graph, nodes []*NodeRuntime, env *Env) (*Job, error) {
	if graph == nil {
		return nil, fmt.Errorf("%w: nil graph", ErrGraphInvalid)
	}
	if err := graph.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrGraphInvalid, err)
	}
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	numNodes := len(nodes)
	if env == nil {
		env = &Env{}
	}
	env.NumNodes = numNodes
	if env.Services == nil {
		env.Services = nodes[0].services
	}

	// Plan loader splits on the driver.
	assignment := make(map[int]map[int][]Split) // node -> flowlet -> splits
	for n := 0; n < numNodes; n++ {
		assignment[n] = make(map[int][]Split)
	}
	splitsPerNode := make([]int, numNodes)
	for _, spec := range graph.Flowlets() {
		if spec.Kind != KindLoader {
			continue
		}
		splits, err := spec.Loader.Plan(env)
		if err != nil {
			return nil, fmt.Errorf("core: plan loader %q: %w", spec.Name, err)
		}
		load := make([]int64, numNodes)
		for n := range load {
			load[n] = int64(splitsPerNode[n])
		}
		for _, sp := range splits {
			dest := -1
			if sp.PreferredNode >= 0 && sp.PreferredNode < numNodes {
				dest = sp.PreferredNode
			} else {
				// Least-loaded assignment keeps the workload balanced.
				for n := 0; n < numNodes; n++ {
					if dest < 0 || load[n] < load[dest] {
						dest = n
					}
				}
			}
			load[dest]++
			splitsPerNode[dest]++
			assignment[dest][spec.ID] = append(assignment[dest][spec.ID], sp)
		}
	}

	jobID := jobCounter.Add(1)
	jns := make([]*jobNode, numNodes)
	for n, rt := range nodes {
		jn := newJobNode(rt, graph, jobID, numNodes)
		if err := rt.registerJob(jn); err != nil {
			for i := 0; i < n; i++ {
				nodes[i].unregisterJob(jobID)
			}
			return nil, err
		}
		jns[n] = jn
	}
	return &Job{
		id:            jobID,
		graph:         graph,
		nodes:         nodes,
		jns:           jns,
		assignment:    assignment,
		splitsPerNode: splitsPerNode,
	}, nil
}

// ID returns the engine-assigned job id.
func (j *Job) ID() int64 { return j.id }

// Start kicks off execution on every node. It is idempotent; only the
// first call has effect.
func (j *Job) Start() {
	if !j.started.CompareAndSwap(false, true) {
		return
	}
	// Job root span on the driver lane; every per-node span parents to it
	// through the tracer's per-run job tag.
	tr := j.nodes[0].sub.Trace
	j.jsp = tr.Start(-1, "", tr.JobTag(j.id)+"/job:"+j.graph.Name, "job", "")
	start := time.Now()
	j.startT = start
	for _, jn := range j.jns {
		jn.started = start
	}
	for n, jn := range j.jns {
		jn.start(j.assignment[n])
	}
}

// Abort stops the job through the engine's failure path: the error is
// recorded on the driver node and broadcast to every other node, loaders
// and emits unwind at their next boundary, and Wait returns err. Aborting
// a job that was never started resolves it immediately.
func (j *Job) Abort(err error) {
	j.jns[0].fail(err)
}

// Wait blocks until every node finished (or the job aborted) and returns
// the aggregated result. It is safe to call from multiple goroutines; all
// callers observe the same result.
func (j *Job) Wait() (*JobResult, error) {
	j.waitOnce.Do(func() { j.res, j.err = j.wait() })
	return j.res, j.err
}

func (j *Job) wait() (*JobResult, error) {
	var firstErr error
	for _, jn := range j.jns {
		<-jn.doneCh
		if err := jn.Error(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var dur time.Duration
	if j.started.Load() {
		dur = time.Since(j.startT)
	}
	j.jsp.End()

	res := &JobResult{
		Job:           j.id,
		Duration:      dur,
		SplitsPerNode: j.splitsPerNode,
	}
	agg := metrics.NewRegistry()
	for _, jn := range j.jns {
		res.Stalls += jn.totalStalls()
	}
	for _, spec := range j.graph.Flowlets() {
		stat := FlowletStat{Name: spec.Name, Kind: spec.Kind}
		for _, jn := range j.jns {
			fs := jn.flowlets[spec.ID]
			fs.mu.Lock()
			stat.BinsIn += fs.enqueued
			stat.LoaderSplits += fs.splitsDone
			if fs.finishedAt > stat.CompletedAt {
				stat.CompletedAt = fs.finishedAt
			}
			fs.mu.Unlock()
		}
		res.Flowlets = append(res.Flowlets, stat)
	}
	// Per-job isolation, settled here: each jobNode accounted into its
	// job-scoped registry; merge it into the long-lived node registry (so
	// cluster totals are identical to the shared-registry design) and into
	// the result aggregate (so res.Metrics is exactly this job's deltas).
	for _, jn := range j.jns {
		for _, fs := range jn.flowlets {
			if fs.acc != nil {
				fs.acc.close()
			}
		}
		agg.Merge(jn.reg)
		jn.rt.sub.Metrics.Merge(jn.reg)
		jn.rt.unregisterJob(j.id)
	}
	res.Metrics = agg.Snapshot()
	res.Gated = res.Metrics.Get("flow.gated")
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}

// Run executes the graph on the given per-node runtimes and blocks until
// completion — the serial composition of NewJob, Start and Wait.
func Run(graph *Graph, nodes []*NodeRuntime, env *Env) (*JobResult, error) {
	j, err := NewJob(graph, nodes, env)
	if err != nil {
		return nil, err
	}
	j.Start()
	return j.Wait()
}
