package mapreduce

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/extsort"
	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
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
}

// NewEngine creates an engine over the cluster with the given defaults.
func NewEngine(c *cluster.Cluster, cfg Config) *Engine {
	cfg.FillDefaults()
	return &Engine{c: c, cfg: cfg, sub: c.Substrate()}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

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
	return e.RunChainContext(context.Background(), jobs...)
}

// RunChainContext is RunChain honoring ctx cancellation; a canceled chain
// stops at the current job boundary.
func (e *Engine) RunChainContext(ctx context.Context, jobs ...Job) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	total := &Result{Name: "chain"}
	for i := range jobs {
		r, err := e.RunContext(ctx, jobs[i])
		if r != nil {
			total.Jobs = append(total.Jobs, r)
			total.MapTasks += r.MapTasks
			total.ReduceTasks += r.ReduceTasks
			total.Spills += r.Spills
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
	tag                 string
	numReduces          int
	partition           core.Partitioner
	format              lineFormat
	mapHeap, reduceHeap int64
	// specWG tracks speculative loser attempts still draining; they must
	// finish (and their output be discarded) before the job returns.
	specWG sync.WaitGroup
}

// newJobRun numbers job and fills what it leaves unset from the engine's
// defaults.
func (e *Engine) newJobRun(ctx context.Context, job Job) *jobRun {
	j := &jobRun{
		Engine:     e,
		ctx:        ctx,
		job:        job,
		id:         jobSeq.Add(1),
		numReduces: job.NumReduces,
		partition:  job.Partitioner,
		format:     appendLine,
		mapHeap:    job.MapHeapBytes,
		reduceHeap: job.ReduceHeapBytes,
	}
	j.tag = e.sub.Trace.JobTag(j.id)
	if j.numReduces <= 0 {
		j.numReduces = e.cfg.DefaultReduces
	}
	if j.partition == nil {
		j.partition = core.HashPartition
	}
	if f := job.OutputFormat; f != nil {
		j.format = func(dst []byte, kv core.KV) []byte { return append(dst, f(kv)...) }
	}
	if j.mapHeap <= 0 {
		j.mapHeap = e.cfg.MapHeapBytes
	}
	if j.reduceHeap <= 0 {
		j.reduceHeap = e.cfg.ReduceHeapBytes
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
		reg.Observe("mr.job.startup", d)
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
	defer j.specWG.Wait()
	g := par.NewGroup(0)
	for i := range splits {
		i := i
		g.Go(func() error {
			if ctx.Err() != nil {
				return canceled(job.Name, ctx)
			}
			mr, err := j.runMapAttempts(i, splits[i])
			if err != nil {
				return err
			}
			mapResults[i] = mr
			return nil
		})
	}
	// The map/reduce barrier (§3.2): reduce computation starts only after
	// every map task has finished.
	if err := g.Wait(); err != nil {
		return res, err
	}

	if job.NewReducer == nil {
		// Map-only job: map output already in HDFS.
		res.OutputFiles = e.c.FS().List(job.Output + "/")
		res.Spills = reg.Counter("mr.spills").Value()
		return res, nil
	}

	// ---- Reduce phase ----
	res.ReduceTasks = j.numReduces
	rg := par.NewGroup(0)
	var shuffleBytes atomic.Int64
	for r := 0; r < j.numReduces; r++ {
		r := r
		rg.Go(func() error {
			if ctx.Err() != nil {
				return canceled(job.Name, ctx)
			}
			var n int64
			err := j.retryTask(fmt.Sprintf("%s/retry:reduce-%05d", j.tag, r), 0, func(attempt int) (rerr error) {
				n, rerr = j.runReduceTask(r, attempt, mapResults)
				return rerr
			})
			shuffleBytes.Add(n)
			return err
		})
	}
	if err := rg.Wait(); err != nil {
		return res, err
	}
	res.ShuffleBytes = shuffleBytes.Load()
	res.OutputFiles = e.c.FS().List(job.Output + "/")

	// Clean intermediate map outputs.
	for _, mr := range mapResults {
		e.removeOutput(mr)
	}
	return res, nil
}

// specAttemptBase numbers speculative backup attempts so their fault dice
// are independent of the primary's retries.
const specAttemptBase = 100

// maxTaskAttempts bounds how often a failed task is re-run before the job
// fails (mapreduce.task.maxattempts); revokeBudget bounds container-revocation
// reschedules per task runner.
const (
	maxTaskAttempts = 4
	revokeBudget    = 8
)

// retryTask drives one task's attempt sequence, starting at attempt base:
// any failure is retried until the maxTaskAttempts budget is spent. A
// container revocation does not consume an attempt — like Hadoop, a
// preempted task is rescheduled, not blamed — but total reschedules are
// bounded by revokeBudget so the job cannot loop.
// A canceled ctx stops the sequence at the next attempt boundary.
func (j *jobRun) retryTask(traceID string, base int, run func(attempt int) error) error {
	fails := 0
	for seq := 0; ; seq++ {
		if j.ctx.Err() != nil {
			return canceled(j.job.Name, j.ctx)
		}
		err := run(base + seq)
		if err == nil {
			return nil
		}
		if faults.IsRevocation(err) {
			if seq+1 >= maxTaskAttempts+revokeBudget {
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
			tr.Instant(-1, "", fmt.Sprintf("%s:%d", traceID, base+seq), "retry", 0)
		}
	}
}

// runMapAttempts runs map task taskID to completion, retrying failures
// and — when the cluster's fault injector declares the first attempt a
// straggler and Speculation is on — racing a backup attempt against it,
// Hadoop's speculative execution. The first success wins; the loser keeps
// running and its output is discarded when it finishes (specWG lets the
// job wait for that drain).
func (j *jobRun) runMapAttempts(taskID int, split hdfs.Split) (*mapResult, error) {
	run := func(base int) (mr *mapResult, err error) {
		err = j.retryTask(fmt.Sprintf("%s/retry:map-%05d", j.tag, taskID), base, func(attempt int) (rerr error) {
			mr, rerr = j.runMapTask(taskID, attempt, split)
			return rerr
		})
		if err != nil {
			return nil, err
		}
		return mr, nil
	}

	site := fmt.Sprintf("map-%05d", taskID)
	if !j.cfg.Speculation || j.job.NewReducer == nil || !j.sub.Faults.WouldStraggle(site) {
		return run(0)
	}

	reg, tr := j.sub.Metrics, j.sub.Trace
	reg.Inc("mr.speculative.launched")
	if tr.Enabled() {
		tr.Instant(-1, j.tag, fmt.Sprintf("%s/spec:launch:map-%05d", j.tag, taskID), "speculative", 0)
	}
	type specRes struct {
		mr     *mapResult
		err    error
		backup bool
	}
	ch := make(chan specRes, 2)
	go func() {
		m, err := run(0)
		ch <- specRes{mr: m, err: err}
	}()
	go func() {
		m, err := run(specAttemptBase)
		ch <- specRes{mr: m, err: err, backup: true}
	}()
	first := <-ch
	if first.err != nil {
		// The fast attempt failed outright; use whatever the other one
		// produces, or surface the first error.
		second := <-ch
		if second.err != nil {
			return nil, first.err
		}
		if second.backup {
			reg.Inc("mr.speculative.won")
			if tr.Enabled() {
				tr.Instant(-1, j.tag, fmt.Sprintf("%s/spec:won:map-%05d", j.tag, taskID), "speculative", 0)
			}
		}
		return second.mr, nil
	}
	if first.backup {
		reg.Inc("mr.speculative.won")
		if tr.Enabled() {
			tr.Instant(-1, j.tag, fmt.Sprintf("%s/spec:won:map-%05d", j.tag, taskID), "speculative", 0)
		}
	}
	j.specWG.Add(1)
	go func() {
		defer j.specWG.Done()
		if second := <-ch; second.err == nil {
			j.removeOutput(second.mr)
		}
	}()
	return first.mr, nil
}

// removeOutput drops a map attempt's output file (job cleanup and
// speculative losers).
func (e *Engine) removeOutput(mr *mapResult) {
	if mr != nil && mr.out.Name != "" {
		_ = e.c.Disk(mr.node).Remove(mr.out.Name)
	}
}

// beginAttempt names one attempt of the task at site ("map-00003"), opens
// its span and pays its startup on node. taskName is the attempt's
// namespace on disk; tname, its job-relative name, is what trace IDs are
// built from (see jobRun.tag). Attempt 0 keeps the plain name, so
// fault-free runs are bit-identical; retries and speculative attempts get a
// namespace of their own, so a straggling loser can never clobber the
// winner.
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

// ---------------------------------------------------------------------------
// map task

// errCorruptRun reports a run record without a usable partition prefix.
var errCorruptRun = errors.New("mapreduce: corrupt run record")

// runKeyPrefix is the width of a run key's partition prefix.
const runKeyPrefix = 4

// appendRunKey appends a run key — the key of a record in the sort buffer,
// in every merge and in a fetch run file: the partition as a 4-byte
// big-endian prefix, then the key. bytes.Compare on two run keys orders the
// records by (partition, key) — big-endian partition first, then the raw
// key, as strings.Compare orders it: the contract extsort's sort buffer and
// byte merges rely on. The map side's files are sectioned by the prefix and
// do not hold it (extsort.CreateSectioned).
func appendRunKey[K string | []byte](kbuf []byte, part int, key K) []byte {
	kbuf = binary.BigEndian.AppendUint32(kbuf, uint32(part))
	return append(kbuf, key...)
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

// lineFormat appends one output pair's text line to dst.
type lineFormat func(dst []byte, kv core.KV) []byte

// appendLine is the default lineFormat, "key\tvalue\n" with the value as
// fmt's %v prints it: the common value types are appended directly, the
// rest go through fmt.
func appendLine(dst []byte, kv core.KV) []byte {
	dst = append(dst, kv.Key...)
	dst = append(dst, '\t')
	switch v := kv.Value.(type) {
	case string:
		dst = append(dst, v...)
	case int:
		dst = strconv.AppendInt(dst, int64(v), 10)
	case int64:
		dst = strconv.AppendInt(dst, v, 10)
	case float64:
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	default:
		dst = fmt.Append(dst, v)
	}
	return append(dst, '\n')
}

func (j *jobRun) runMapTask(taskID, attempt int, split hdfs.Split) (mres *mapResult, rerr error) {
	job, reg, inj, tr := j.job, j.sub.Metrics, j.sub.Faults, j.sub.Trace
	site := fmt.Sprintf("map-%05d", taskID)
	// Data-local placement: ask for the split's first replica holder.
	pref := -1
	if len(split.Hosts) > 0 {
		pref = int(split.Hosts[0])
	}
	ct, err := j.c.Yarn().Allocate(j.cfg.MapMemMB, pref)
	if err != nil {
		return nil, err
	}
	defer j.c.Yarn().Release(ct)

	taskName, tname, tsp := j.beginAttempt("map", site, attempt, ct.Node)
	defer func() { tsp.EndBytes(split.Length) }()
	// An injected straggler stalls only the original attempt; retries and
	// speculative backups run at full speed.
	if attempt == 0 {
		if d, ok := inj.Straggle(site); ok {
			if tr.Enabled() {
				tr.Instant(ct.Node, j.tag+"/"+tname, j.tag+"/"+tname+"/straggle", "fault", 0)
			}
			j.sub.Clock.Charge(ct.Node, vtime.Fault, d)
		}
	}
	node := ct.Node
	local := false
	for _, h := range split.Hosts {
		if int(h) == node {
			local = true
			break
		}
	}
	if local {
		reg.Inc("mr.map.local")
	} else {
		reg.Inc("mr.map.remote")
	}

	em := &taskEmitter{task: taskName, heap: j.mapHeap}
	mt := j.newMapTask(taskName, tname, node, em)

	mapOnly := job.NewReducer == nil
	var hdfsOut *bufio.Writer
	var hdfsFile *hdfs.Writer
	if mapOnly {
		hdfsFile = j.c.FS().Create(fmt.Sprintf("%s/part-m-%05d", job.Output, taskID), transport.NodeID(node))
		hdfsOut = bufio.NewWriter(hdfsFile)
	}
	defer func() {
		if rerr == nil {
			return
		}
		// Failed attempt: roll back everything it wrote — spills, merged
		// runs and any unpublished HDFS output — so a retry starts clean and
		// no partial files leak.
		if hdfsFile != nil {
			hdfsFile.Abort()
		}
		for _, f := range mt.disk.List(taskName + "/") {
			_ = mt.disk.Remove(f)
		}
	}()

	var text []byte // the map-only sink's format scratch
	em.sink = func(kv core.KV) error {
		if mapOnly {
			text = j.format(text[:0], kv)
			_, err := hdfsOut.Write(text)
			return err
		}
		return mt.collect(kv, em)
	}

	mapper := job.NewMapper()
	if s, ok := mapper.(Setupper); ok {
		if err := s.Setup(em); err != nil {
			return nil, fmt.Errorf("%s setup: %w", taskName, err)
		}
	}
	it, err := j.c.FS().OpenLines(split, transport.NodeID(node))
	if err != nil {
		return nil, fmt.Errorf("%s open split: %w", taskName, err)
	}
	defer it.Close()
	for {
		line, off, ok := it.Next()
		if !ok {
			break
		}
		kv := core.KV{Key: strconv.FormatInt(off, 10), Value: line}
		if err := mapper.Map(kv, em); err != nil {
			return nil, fmt.Errorf("%s: %w", taskName, err)
		}
	}
	if err := it.Err(); err != nil {
		return nil, fmt.Errorf("%s read split: %w", taskName, err)
	}
	if c, ok := mapper.(Cleanupper); ok {
		if err := c.Cleanup(em); err != nil {
			return nil, fmt.Errorf("%s cleanup: %w", taskName, err)
		}
	}

	// Mid-task fault checkpoint: the attempt has done its work but
	// committed nothing a retry could not redo.
	if err := inj.KillMapTask(site, attempt); err != nil {
		return nil, err
	}
	if inj.Revoke(site, attempt) {
		j.c.Yarn().Revoke(ct)
		return nil, &faults.Error{Op: "yarn.revoke", Site: fmt.Sprintf("%s#%d", site, attempt)}
	}

	if mapOnly {
		if err := hdfsOut.Flush(); err != nil {
			return nil, err
		}
		if err := hdfsFile.Close(); err != nil {
			return nil, err
		}
		return &mapResult{node: node}, nil
	}

	out, err := mt.finish()
	if err != nil {
		return nil, err
	}
	return &mapResult{node: node, out: out}, nil
}

// mapTask holds the map-side sort buffer and spill machinery of one
// attempt of one of j's map tasks.
type mapTask struct {
	j    *jobRun
	name string
	// tname is the job-relative task name trace IDs are built from.
	tname string
	node  int
	disk  storage.Disk

	// buf is the sort buffer; kbuf and vbuf are collect's encode scratch.
	buf        *extsort.SortBuffer
	kbuf, vbuf []byte
}

// newMapTask sets up the map side of one task attempt on its node's disk:
// the sort buffer spills when it exceeds io.sort.mb, each spill run
// combined (if configured) and released from em, the task's heap account.
func (j *jobRun) newMapTask(taskName, tname string, node int, em *taskEmitter) *mapTask {
	reg, tr := j.sub.Metrics, j.sub.Trace
	mt := &mapTask{j: j, name: taskName, tname: tname, node: node, disk: j.c.Disk(node)}
	// Every spill run is folded by a combiner of its own, made when the
	// run's first group arrives.
	var comb *groupCombiner
	cfg := extsort.SortBufferConfig{
		Disk:      mt.disk,
		RunName:   func(i int) string { return fmt.Sprintf("%s/spill-%04d", taskName, i) },
		Prefix:    runKeyPrefix,
		Threshold: j.cfg.SortBufferBytes,
		OnSpill: func(_ int, bytes int64) {
			reg.Inc("mr.spills")
			reg.Add("mr.spill.bytes", bytes)
			if tr.Enabled() {
				// Named like its run, by the spill's ordinal.
				tr.Instant(node, j.tag+"/"+tname,
					fmt.Sprintf("%s/%s/spill-%04d", j.tag, tname, len(mt.buf.Runs())-1), "spill", bytes)
			}
			em.Charge(-em.used) // buffer released
			if comb != nil {
				comb.red = nil
			}
		},
	}
	if j.job.NewCombiner != nil {
		comb = newGroupCombiner(taskName + "/combine")
		cfg.Combine = func(key []byte, values [][]byte, emit func(key, value []byte) error) error {
			if comb.red == nil {
				comb.red = j.job.NewCombiner()
				reg.Inc("mr.combines")
			}
			return comb.fold(key, values, emit)
		}
	}
	mt.buf = extsort.NewSortBuffer(cfg)
	return mt
}

// collect encodes one intermediate pair — the only time it is encoded on
// the map side — and adds it to the sort buffer, which spills when it
// exceeds io.sort.mb.
func (mt *mapTask) collect(kv core.KV, em *taskEmitter) error {
	p := mt.j.partition(kv.Key, mt.j.numReduces)
	sz := kv.Size()
	if err := em.Charge(sz); err != nil {
		return err
	}
	var err error
	if mt.vbuf, err = core.EncodeValue(mt.vbuf[:0], kv.Value); err != nil {
		return err
	}
	mt.kbuf = appendRunKey(mt.kbuf[:0], p, kv.Key)
	return mt.buf.Add(mt.kbuf, mt.vbuf, sz)
}

// groupReducer feeds a Reducer the records of a merge, or of a sorted
// buffer, a key group at a time: add takes the next record, flush closes
// the last group. The source lends a record only until the next, so the
// open group's key is copied, and so is its first value: a group that ends
// as one record goes to single, if there is one, as it is and never
// decoded. Otherwise values are decoded as they arrive, into one slice
// that serves every group (see Reducer).
type groupReducer struct {
	red    Reducer
	em     *taskEmitter
	single func(key, value []byte) error
	key    []byte // the open group's run key
	first  []byte // its first value, encoded
	n      int    // records in it
	values []any  // the decoded ones
	size   int64  // their core.ValueSize
}

// add takes the next record, first closing the open group if the record is
// not part of it.
func (g *groupReducer) add(key, value []byte) error {
	if g.n > 0 && !bytes.Equal(key, g.key) {
		if err := g.flush(); err != nil {
			return err
		}
	}
	g.n++
	if g.n == 1 {
		g.key = append(g.key[:0], key...)
		g.first = append(g.first[:0], value...)
		return nil
	}
	if g.n == 2 {
		if err := g.push(g.first); err != nil {
			return err
		}
	}
	return g.push(value)
}

// push decodes one value of the open group.
func (g *groupReducer) push(value []byte) error {
	v, _, err := core.DecodeValue(value)
	if err != nil {
		return err
	}
	if len(g.values) == cap(g.values) {
		// Doubling allocates twice the largest group on the way to it;
		// append's own growth past 256 elements, about five times.
		g.values = slices.Grow(g.values, max(len(g.values), 16))
	}
	g.values = append(g.values, v)
	g.size += core.ValueSize(v)
	return nil
}

// flush closes the open group, if there is one. A group whose values do
// not fit the emitter's heap fails the task.
func (g *groupReducer) flush() error {
	n := g.n
	g.n = 0
	switch {
	case n == 0:
		return nil
	case n == 1 && g.single != nil:
		return g.single(g.key, g.first)
	case n == 1:
		if err := g.push(g.first); err != nil {
			return err
		}
	}
	values, size := g.values, g.size
	g.values, g.size = g.values[:0], 0
	if len(g.key) < runKeyPrefix {
		return errCorruptRun
	}
	if heap := g.em.heap; heap > 0 && size > heap {
		return &OOMError{Task: g.em.task, Need: size, Heap: heap}
	}
	return g.red.Reduce(string(g.key[runKeyPrefix:]), values, g.em)
}

// groupCombiner is a groupReducer for a job's combiner: what the combiner
// emits is encoded as run records under the group's partition and passed
// to emit. One emitter serves every group; red is set by the caller.
type groupCombiner struct {
	groupReducer
	kbuf, vbuf []byte
	emit       func(key, value []byte) error
}

// newGroupCombiner returns a combiner whose emitter reports as task.
func newGroupCombiner(task string) *groupCombiner {
	c := &groupCombiner{}
	c.em = &taskEmitter{task: task, sink: c.encode}
	return c
}

// encode is the emitter's sink: one combined pair becomes a run record.
func (c *groupCombiner) encode(kv core.KV) error {
	var err error
	if c.vbuf, err = core.EncodeValue(c.vbuf[:0], kv.Value); err != nil {
		return err
	}
	c.kbuf = append(append(c.kbuf[:0], c.key[:runKeyPrefix]...), kv.Key...)
	return c.emit(c.kbuf, c.vbuf)
}

// fold combines one whole group: the run key and its encoded values.
func (c *groupCombiner) fold(key []byte, values [][]byte, emit func(key, value []byte) error) error {
	c.emit = emit
	c.values = slices.Grow(c.values, len(values))
	for _, b := range values {
		if err := c.add(key, b); err != nil {
			return err
		}
	}
	return c.flush()
}

// finish performs the final spill and leaves the task's output as one
// sectioned run, the way Hadoop's mergeParts does: a task that never
// spilled has no file; one that spilled once has its output where that
// spill lies, neither read nor written again; any other merges its spills,
// in MergeToFactor passes while there are more than the merge factor
// allows and then all that is left into the one output file. The merge
// moves bytes: a record's value is decoded only if the merge-time combiner
// folds it, so what collect encoded is first decoded by the reducer.
func (mt *mapTask) finish() (extsort.Run, error) {
	if err := mt.buf.Spill(); err != nil {
		return extsort.Run{}, err
	}
	spills := mt.buf.Runs()
	switch len(spills) {
	case 0:
		return extsort.Run{}, nil
	case 1:
		return spills[0], nil
	}
	// The merge span covers every pass plus the final merge; its byte count
	// is the output file's. Error paths leave the span unended, which drops
	// it from the recording.
	j := mt.j
	var msp trace.Span
	if tr := j.sub.Trace; tr.Enabled() {
		msp = tr.Start(mt.node, j.tag+"/"+mt.tname, j.tag+"/"+mt.tname+"/merge", "merge", "disk")
	}
	// Every pass rereads and rewrites its share of the intermediate data on
	// disk, as Hadoop's io.sort.factor does.
	spills, err := extsort.MergeToFactor(mt.disk, spills, j.cfg.MergeFactor,
		func(pass int) string { return fmt.Sprintf("%s/interm-%04d", mt.name, pass) },
		func() { j.sub.Metrics.Inc("mr.merge.passes") })
	if err != nil {
		return extsort.Run{}, err
	}
	defer func() {
		for _, s := range spills {
			_ = mt.disk.Remove(s.Name)
		}
	}()

	w, err := extsort.CreateSectioned(mt.disk, mt.name+"/file.out", runKeyPrefix)
	if err != nil {
		return extsort.Run{}, err
	}
	if j.job.NewCombiner != nil {
		comb := newGroupCombiner(mt.name + "/merge-combine")
		comb.red, comb.emit, comb.single = j.job.NewCombiner(), w.Write, w.Write
		if err = extsort.MergeRuns(mt.disk, spills, comb.add); err == nil {
			err = comb.flush()
		}
	} else {
		err = extsort.MergeRuns(mt.disk, spills, w.Write)
	}
	out, cerr := w.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		return extsort.Run{}, err
	}
	size, err := mt.disk.Size(out.Name)
	if err != nil {
		return extsort.Run{}, err
	}
	msp.EndBytes(size)
	return out, nil
}

// ---------------------------------------------------------------------------
// reduce task

// runSource is an open run: encoded records, each valid until the next.
type runSource interface {
	extsort.Source[storage.Record]
	io.Closer
}

// copySegment copies the records of src into the run file name on disk
// without decoding them, and closes src.
func copySegment(src runSource, disk storage.Disk, name string) error {
	defer src.Close()
	w, err := extsort.CreateRawRun(disk, name)
	if err != nil {
		return err
	}
	for {
		rc, err := src.Next()
		if err == io.EOF {
			return w.Close()
		}
		if err == nil {
			err = w.Write(rc.Key, rc.Value)
		}
		if err != nil {
			w.Close()
			return err
		}
	}
}

func (j *jobRun) runReduceTask(r, attempt int, maps []*mapResult) (fetched int64, rerr error) {
	job, reg, inj, tr := j.job, j.sub.Metrics, j.sub.Faults, j.sub.Trace
	tag, heap := j.tag, j.reduceHeap
	site := fmt.Sprintf("reduce-%05d", r)
	ct, err := j.c.Yarn().Allocate(j.cfg.ReduceMemMB, -1)
	if err != nil {
		return 0, err
	}
	defer j.c.Yarn().Release(ct)
	node := ct.Node
	taskName, tname, tsp := j.beginAttempt("reduce", site, attempt, node)
	defer func() { tsp.EndBytes(fetched) }()
	disk := j.c.Disk(node)
	var out *hdfs.Writer
	defer func() {
		if rerr == nil {
			return
		}
		// Failed attempt: drop fetched shuffle runs and abort any partial
		// output so the retry re-fetches into a clean namespace.
		if out != nil {
			out.Abort()
		}
		for _, f := range disk.List(taskName + "/") {
			_ = disk.Remove(f)
		}
	}()

	// ---- shuffle fetch ----
	// A fetched section becomes a plain run of run keys and encoded values on
	// at: mem, a disk made of the task's own memory, uncharged, while the
	// sections fit the in-memory shuffle budget; the node's disk from the
	// first one that does not, when mem is dropped.
	mem := storage.NewMemDisk(0)
	at := storage.Disk(mem)
	var runs []extsort.Run
	var payload int64 // of the sections fetched so far

	// Transfers are charged per source node with the section sizes summed
	// (one bulk fetch per map host, the way Hadoop's fetcher pulls all of
	// a host's map outputs over one connection) rather than per section:
	// byte totals are identical, only the per-message latency count drops.
	remoteBytes := make([]int64, j.c.NumNodes())

	for mi, mr := range maps {
		if mr == nil {
			continue
		}
		part, ok := mr.out.Partition(r)
		if !ok {
			continue
		}
		seg := part.Sections[0]
		if mem != nil && payload+seg.Payload > heap/2 {
			// The fetched data exceeds the in-memory shuffle budget: move
			// the runs held in memory to the disk and fetch the rest there,
			// like Hadoop's merge-to-disk.
			at = disk
			for _, run := range runs {
				src, err := extsort.OpenRawRun(mem, run.Name)
				if err == nil {
					err = copySegment(src, at, run.Name)
				}
				if err != nil {
					return fetched, err
				}
			}
			mem = nil
		}
		// Read the section from the map node's disk (charges that disk one
		// seek and the section's bytes), then pay the network transfer to
		// this node. The reader puts the partition back in front of the
		// keys, which makes the records run keys again.
		var fsp trace.Span
		if tr.Enabled() {
			fsp = tr.Start(mr.node, tag+"/"+tname,
				fmt.Sprintf("%s/%s/fetch-%05d", tag, tname, mi), "fetch", "disk")
		}
		rdr, err := extsort.OpenSections(j.c.Disk(mr.node), part)
		if err != nil {
			return fetched, fmt.Errorf("%s fetch %s: %w", taskName, part.Name, err)
		}
		name := fmt.Sprintf("%s/fetch-%05d", taskName, len(runs))
		runs = append(runs, extsort.Run{Name: name})
		payload += seg.Payload
		if err := copySegment(rdr, at, name); err != nil {
			return fetched, err
		}
		fsp.EndBytes(seg.Len)
		if mr.node != node {
			remoteBytes[mr.node] += seg.Len
		}
		fetched += seg.Len
		if mem == nil {
			reg.Inc("mr.reduce.disk.merges")
			if tr.Enabled() {
				tr.Instant(node, tag+"/"+tname,
					fmt.Sprintf("%s/%s/rspill-%05d", tag, tname, len(runs)-1), "spill", seg.Payload)
			}
		}
	}

	// Pay the grouped network transfers, in node order.
	for src, n := range remoteBytes {
		if n == 0 {
			continue
		}
		var ssp trace.Span
		if tr.Enabled() {
			ssp = tr.Start(node, tag+"/"+tname,
				fmt.Sprintf("%s/%s/shuffle:from%d", tag, tname, src), "shuffle", "net")
		}
		j.c.ChargeNet(transport.NodeID(src), transport.NodeID(node), n)
		reg.Add("mr.shuffle.bytes", n)
		ssp.EndBytes(n)
	}

	// Mid-merge fault checkpoint: the shuffle is fetched but the merge has
	// not started; a retry re-fetches from the (still present) map output.
	if err := inj.KillReduceTask(site, attempt); err != nil {
		return fetched, err
	}
	if inj.Revoke(site, attempt) {
		j.c.Yarn().Revoke(ct)
		return fetched, &faults.Error{Op: "yarn.revoke", Site: fmt.Sprintf("%s#%d", site, attempt)}
	}

	// ---- merge + reduce ----
	out = j.c.FS().Create(fmt.Sprintf("%s/part-r-%05d", job.Output, r), transport.NodeID(node))
	w := bufio.NewWriter(out)
	em := &taskEmitter{task: taskName, heap: heap}
	var text []byte // the sink's format scratch
	em.sink = func(kv core.KV) error {
		text = j.format(text[:0], kv)
		_, err := w.Write(text)
		return err
	}
	reducer := job.NewReducer()
	if s, ok := reducer.(Setupper); ok {
		if err := s.Setup(em); err != nil {
			return fetched, fmt.Errorf("%s setup: %w", taskName, err)
		}
	}

	// One merge over the fetched runs, in map-task order, wherever they
	// are; a value is first decoded here, on its way into Reduce.
	groups := &groupReducer{red: reducer, em: em}
	if err = extsort.MergeRuns(at, runs, groups.add); err == nil {
		err = groups.flush()
	}
	for _, run := range runs {
		_ = at.Remove(run.Name)
	}
	if err != nil {
		return fetched, fmt.Errorf("%s: %w", taskName, err)
	}

	if c, ok := reducer.(Cleanupper); ok {
		if err := c.Cleanup(em); err != nil {
			return fetched, fmt.Errorf("%s cleanup: %w", taskName, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fetched, err
	}
	return fetched, out.Close()
}
