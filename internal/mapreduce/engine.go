package mapreduce

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/extsort"
	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/vtime"
)

var jobSeq atomic.Int64

// Engine runs MapReduce jobs on a simulated cluster.
type Engine struct {
	c   *cluster.Cluster
	cfg Config
	// sub is the cluster's substrate handle, the one the flowlet runtimes
	// and HDFS were built over: startup and straggler charges go to its clock.
	sub substrate.Handle
	// scratch is the spill scratch its map tasks share: the process's.
	scratch *spillScratch
}

// spillScratch is what map tasks work in and give back: the sort buffer's
// blocks, which a task holds from its first record to its last spill, and
// what a spill borrows until its run is written — the sort index and the
// combiner's decoded values. A list holds as many slices as were ever in
// use from it at once.
type spillScratch struct {
	blocks *par.List[[]byte]
	index  *par.List[[]uint32]
	values *par.List[[]any]
}

func newSpillScratch() *spillScratch {
	return &spillScratch{
		blocks: par.NewSlices[byte](extsort.SortBlockSize),
		index:  par.NewSlices[uint32](0),
		values: par.NewSlices[any](0),
	}
}

// processScratch is shared by the map tasks of every engine in the
// process, so a process that builds a cluster per job reuses it across
// clusters, as it does storage's record buffers. Per engine, every job
// would pay again for its cluster's peak of spills in progress at once, a
// peak that follows how the map tasks interleave, so the bytes one job
// allocates would move from one run of it to the next.
var processScratch = newSpillScratch()

// NewEngine creates an engine over the cluster with the given defaults.
// The cluster gathers the spill scratch with its own lists
// (Cluster.Buffers).
func NewEngine(c *cluster.Cluster, cfg Config) *Engine {
	cfg.FillDefaults()
	e := &Engine{c: c, cfg: cfg, sub: c.Substrate(), scratch: processScratch}
	c.AddBuffers(e.Buffers())
	return e
}

// Buffers names the spill scratch lists, under "mr/".
func (e *Engine) Buffers() par.Buffers {
	return par.Buffers{
		"mr/sort-blocks":    e.scratch.blocks.Stats,
		"mr/sort-index":     e.scratch.index.Stats,
		"mr/combine-values": e.scratch.values.Stats,
	}
}

// Run executes one job and blocks until it completes.
func (e *Engine) Run(job Job) (*Result, error) {
	return e.RunContext(context.Background(), job)
}

// RunContext executes one job, honoring ctx cancellation at task
// boundaries: before dispatching each map or reduce attempt, and between
// retry attempts. A canceled run returns an error matching
// core.ErrJobCanceled.
func (e *Engine) RunContext(ctx context.Context, job Job) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	res, err := e.run(ctx, job)
	if res != nil {
		res.Duration = time.Since(start)
	}
	return res, err
}

// RunChain executes jobs sequentially — Hadoop's way of expressing
// multi-phase computations (§3.2): every boundary pays job startup and a
// full HDFS materialization of the intermediate data.
func (e *Engine) RunChain(jobs ...Job) (*Result, error) {
	start := time.Now()
	total := &Result{Name: "chain"}
	for i := range jobs {
		r, err := e.Run(jobs[i])
		if r != nil {
			total.Jobs = append(total.Jobs, r)
			total.MapTasks += r.MapTasks
			total.ReduceTasks += r.ReduceTasks
			total.ShuffleBytes += r.ShuffleBytes
			total.OutputFiles = r.OutputFiles
		}
		if err != nil {
			total.Duration = time.Since(start)
			return total, fmt.Errorf("mapreduce: chain job %d (%s): %w", i, jobs[i].Name, err)
		}
	}
	total.Duration = time.Since(start)
	return total, nil
}

// mapResult is what a finished map attempt hands the reducers: its one
// output file on node's disk and, in out.Sections, where each partition's
// records lie in it (Hadoop's file.out and its index). A reducer reads its
// section's Len bytes, which are also what crosses the wire; the section's
// Payload tells it where to put them before it does. out.Name is empty when
// the task emitted nothing.
type mapResult struct {
	node int
	out  extsort.Run
}

// jobRun is one job in flight: what run resolved once from the Job and the
// engine's defaults. Its methods are the job's tasks.
type jobRun struct {
	*Engine
	ctx context.Context
	job Job
	id  int64
	// tag is the tracer's label for this job: trace IDs are built from it
	// and from job-relative names, never from id, so that two identical
	// runs produce identical timelines whatever the process-global jobSeq.
	tag        string
	numReduces int
}

// newJobRun numbers job and gives it defaultReduces reduce tasks when it
// sets no count.
func (e *Engine) newJobRun(ctx context.Context, job Job) *jobRun {
	j := &jobRun{Engine: e, ctx: ctx, job: job, id: jobSeq.Add(1), numReduces: job.NumReduces}
	j.tag = e.sub.Trace.JobTag(j.id)
	if j.numReduces <= 0 {
		j.numReduces = defaultReduces
	}
	return j
}

// canceled wraps a ctx expiry as this job's typed cancellation error.
func canceled(name string, ctx context.Context) error {
	return fmt.Errorf("mapreduce: job %q: %w: %v", name, core.ErrJobCanceled, context.Cause(ctx))
}

func (e *Engine) run(ctx context.Context, job Job) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, canceled(job.Name, ctx)
	}
	if job.NewMapper == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no mapper", job.Name)
	}
	if job.NewReducer == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no reducer", job.Name)
	}
	if len(job.InputPrefixes) == 0 {
		return nil, fmt.Errorf("mapreduce: job %q has no input", job.Name)
	}
	if job.Output == "" {
		return nil, fmt.Errorf("mapreduce: job %q has no output", job.Name)
	}
	j := e.newJobRun(ctx, job)
	reg, tr := e.sub.Metrics, e.sub.Trace
	reg.Inc("mr.jobs")

	// Job root span on the driver lane; task spans parent to it through
	// the per-run job tag.
	jsp := tr.Start(-1, "", j.tag+"/job:"+job.Name, "job", "")
	defer jsp.End()

	// Per-job startup: AppMaster + JVM launch overhead (§3.2: "the
	// overhead of creating and starting new jobs"), charged on the
	// driver lane — job launch is serial with everything.
	if e.cfg.JobStartup > 0 {
		d := e.cfg.JobStartup
		var ssp trace.Span
		if tr.Enabled() {
			ssp = tr.Start(-1, j.tag+"/job:"+job.Name, j.tag+"/job-startup", "startup", "startup")
		}
		e.sub.Clock.Charge(vtime.Driver, vtime.Startup, d)
		ssp.End()
	}

	var splits []hdfs.Split
	for _, p := range job.InputPrefixes {
		ss, err := e.c.FS().SplitsGlob(p)
		if err != nil {
			return nil, err
		}
		splits = append(splits, ss...)
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("mapreduce: job %q: no input files under %v", job.Name, job.InputPrefixes)
	}

	res := &Result{Name: job.Name, MapTasks: len(splits)}

	// ---- Map phase ----
	mapResults := make([]*mapResult, len(splits))
	// The map/reduce barrier (§3.2): reduce computation starts only after
	// every map task has finished.
	if err := j.runPhase("map", len(splits), func(i, attempt int) (err error) {
		mapResults[i], err = j.runMapTask(i, attempt, splits[i])
		return err
	}); err != nil {
		return res, err
	}

	// ---- Reduce phase ----
	res.ReduceTasks = j.numReduces
	fetched := make([]int64, j.numReduces) // by each reduce task's last attempt
	if err := j.runPhase("reduce", j.numReduces, func(r, attempt int) (err error) {
		fetched[r], err = j.runReduceTask(r, attempt, mapResults)
		return err
	}); err != nil {
		return res, err
	}
	for _, n := range fetched {
		res.ShuffleBytes += n
	}
	res.OutputFiles = e.c.FS().List(job.Output + "/")

	// Clean intermediate map outputs.
	for _, mr := range mapResults {
		e.removeOutput(mr)
	}
	return res, nil
}

// runPhase runs the phase's tasks 0..n-1 ("map" or "reduce") at once, each
// through retryTask, and waits for them all.
func (j *jobRun) runPhase(kind string, n int, run func(task, attempt int) error) error {
	g := par.NewGroup()
	for i := range n {
		g.Go(func() error {
			return j.retryTask(fmt.Sprintf("%s/retry:%s-%05d", j.tag, kind, i), func(attempt int) error {
				return run(i, attempt)
			})
		})
	}
	return g.Wait()
}

// maxTaskAttempts bounds how often a failed task is re-run before the job
// fails (mapreduce.task.maxattempts); revokeBudget bounds container-revocation
// reschedules per task runner.
const (
	maxTaskAttempts = 4
	revokeBudget    = 8
)

// retryTask drives one task's attempt sequence: any failure is retried
// until the maxTaskAttempts budget is spent. A container revocation does
// not consume an attempt — like Hadoop, a preempted task is rescheduled,
// not blamed — but total reschedules are bounded by revokeBudget so the
// job cannot loop. A canceled ctx stops the sequence at the next attempt
// boundary, the first included.
func (j *jobRun) retryTask(traceID string, run func(attempt int) error) error {
	fails := 0
	for attempt := 0; ; attempt++ {
		if j.ctx.Err() != nil {
			return canceled(j.job.Name, j.ctx)
		}
		err := run(attempt)
		if err == nil {
			return nil
		}
		if faults.IsRevocation(err) {
			if attempt+1 >= maxTaskAttempts+revokeBudget {
				return err
			}
		} else {
			fails++
			if fails >= maxTaskAttempts {
				return err
			}
		}
		j.sub.Metrics.Inc("mr.task.retries")
		if tr := j.sub.Trace; tr.Enabled() {
			tr.Instant(-1, "", fmt.Sprintf("%s:%d", traceID, attempt), "retry", 0)
		}
	}
}

// removeOutput drops a map task's output file at job cleanup.
func (e *Engine) removeOutput(mr *mapResult) {
	if mr != nil && mr.out.Name != "" {
		_ = e.c.Disk(mr.node).Remove(mr.out.Name)
	}
}

// beginAttempt names one attempt of the task at site ("map-00003"), opens
// its span and pays its startup on node. taskName is the attempt's
// namespace on disk; tname, its job-relative name, is what trace IDs are
// built from (see jobRun.tag). Attempt 0 keeps the plain name, so
// fault-free runs are bit-identical; a retry gets a namespace of its own.
func (j *jobRun) beginAttempt(kind, site string, attempt, node int) (taskName, tname string, tsp trace.Span) {
	tr := j.sub.Trace
	tname = site
	if attempt > 0 {
		tname = fmt.Sprintf("%s-a%d", site, attempt)
	}
	if tr.Enabled() {
		tsp = tr.Start(node, j.tag, j.tag+"/"+tname, kind, "cpu")
	}
	if j.cfg.TaskStartup > 0 {
		var ssp trace.Span
		if tr.Enabled() {
			ssp = tr.Start(node, j.tag+"/"+tname, j.tag+"/"+tname+"/startup", "startup", "startup")
		}
		j.sub.Clock.Charge(node, vtime.Startup, j.cfg.TaskStartup)
		ssp.End()
	}
	return fmt.Sprintf("job%d/%s", j.id, tname), tname, tsp
}

// taskEmitter is the Emitter implementation shared by all task kinds; sink
// receives emitted pairs, heap tracks modeled user allocations.
type taskEmitter struct {
	task string
	heap int64
	used int64
	sink func(kv core.KV) error
}

func (t *taskEmitter) Emit(kv core.KV) error { return t.sink(kv) }

func (t *taskEmitter) Charge(bytes int64) error {
	t.used += bytes
	if t.heap > 0 && t.used > t.heap {
		return &OOMError{Task: t.task, Need: t.used, Heap: t.heap}
	}
	return nil
}
