package mapreduce

import (
	"encoding/binary"
	"fmt"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/extsort"
	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
	"github.com/hamr-go/hamr/internal/vtime"
)

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
	// An injected straggler stalls only the original attempt; retries run
	// at full speed.
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

	em := &taskEmitter{task: taskName, heap: mapHeapBytes}
	mt := j.newMapTask(taskName, tname, node, em)
	em.sink = func(kv core.KV) error { return mt.collect(kv, em) }
	defer func() {
		if rerr == nil {
			return
		}
		// Failed attempt: send home the sort buffer's blocks, which hold
		// what it had not spilled, and roll back everything it wrote —
		// spills and merged runs — so a retry starts clean and no partial
		// files leak.
		mt.buf.Release()
		for _, f := range mt.disk.List(taskName + "/") {
			_ = mt.disk.Remove(f)
		}
	}()

	mapper := job.NewMapper()
	it, err := j.c.FS().OpenLines(split, transport.NodeID(node))
	if err != nil {
		return nil, fmt.Errorf("%s open split: %w", taskName, err)
	}
	defer it.Close()
	for {
		line, _, ok := it.Next()
		if !ok {
			break
		}
		kv := core.KV{Key: split.File, Value: line}
		if err := mapper.Map(kv, em); err != nil {
			return nil, fmt.Errorf("%s: %w", taskName, err)
		}
	}
	if err := it.Err(); err != nil {
		return nil, fmt.Errorf("%s read split: %w", taskName, err)
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
// The buffer's blocks come from the spill scratch, and spills borrow
// their index and the combiner's values from it.
func (j *jobRun) newMapTask(taskName, tname string, node int, em *taskEmitter) *mapTask {
	reg, tr := j.sub.Metrics, j.sub.Trace
	mt := &mapTask{j: j, name: taskName, tname: tname, node: node, disk: j.c.Disk(node)}
	cfg := extsort.SortBufferConfig{
		Disk:      mt.disk,
		RunName:   func(i int) string { return fmt.Sprintf("%s/spill-%04d", taskName, i) },
		Prefix:    runKeyPrefix,
		Threshold: j.cfg.SortBufferBytes,
		Index:     j.scratch.index,
		Blocks:    j.scratch.blocks,
		OnSpill: func(_ int, bytes int64) {
			reg.Inc("mr.spills")
			reg.Add("mr.spill.bytes", bytes)
			if tr.Enabled() {
				// Named like its run, by the spill's ordinal.
				tr.Instant(node, j.tag+"/"+tname,
					fmt.Sprintf("%s/%s/spill-%04d", j.tag, tname, len(mt.buf.Runs())-1), "spill", bytes)
			}
			em.Charge(-em.used) // buffer released
		},
	}
	if j.job.NewCombiner != nil {
		// Every spill run is folded by a combiner of its own.
		cfg.Combine = mt.newCombiner("/combine", func() Reducer {
			reg.Inc("mr.combines")
			return j.job.NewCombiner()
		})
	}
	mt.buf = extsort.NewSortBuffer(cfg)
	return mt
}

// collect encodes one intermediate pair — the only time it is encoded on
// the map side — and adds it to the sort buffer, which spills when it
// exceeds io.sort.mb.
func (mt *mapTask) collect(kv core.KV, em *taskEmitter) error {
	p := core.HashPartition(kv.Key, mt.j.numReduces)
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

// groupCombiner is a groupReducer for a job's combiner and the
// extsort.Combiner of a spill or a merge: Begin makes the reducer and
// borrows the values slice from the spill scratch, End gives it back.
// What the combiner emits is encoded as run records under the group's
// partition and passed to write. One emitter serves every group.
type groupCombiner struct {
	groupReducer
	newRed     func() Reducer
	scratch    *par.List[[]any]
	kbuf, vbuf []byte
	write      func(key, value []byte) error
}

// newCombiner returns a combiner of the task's whose emitter reports as
// the task's name plus suffix and whose reducers newRed makes.
func (mt *mapTask) newCombiner(suffix string, newRed func() Reducer) *groupCombiner {
	c := &groupCombiner{newRed: newRed, scratch: mt.j.scratch.values}
	c.em = &taskEmitter{task: mt.name + suffix, sink: c.encode}
	return c
}

// encode is the emitter's sink: one combined pair becomes a run record.
func (c *groupCombiner) encode(kv core.KV) error {
	var err error
	if c.vbuf, err = core.EncodeValue(c.vbuf[:0], kv.Value); err != nil {
		return err
	}
	c.kbuf = append(append(c.kbuf[:0], c.key[:runKeyPrefix]...), kv.Key...)
	return c.write(c.kbuf, c.vbuf)
}

// Begin implements extsort.Combiner.
func (c *groupCombiner) Begin(write func(key, value []byte) error) {
	c.red, c.write = c.newRed(), write
	c.values = c.scratch.Get()
}

// Add implements extsort.Combiner.
func (c *groupCombiner) Add(key, value []byte) error { return c.add(key, value) }

// End implements extsort.Combiner. A group left open by a failure is
// dropped.
func (c *groupCombiner) End(flush bool) error {
	var err error
	if flush {
		err = c.flush()
	}
	c.scratch.Put(c.values)
	c.red, c.values, c.n, c.size = nil, nil, 0, 0
	return err
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
		comb := mt.newCombiner("/merge-combine", j.job.NewCombiner)
		comb.single = w.Write
		comb.Begin(w.Write)
		err = extsort.MergeRuns(mt.disk, spills, comb.Add)
		if cerr := comb.End(err == nil); err == nil {
			err = cerr
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
