package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/extsort"
	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
)

// errCorruptRun reports a run record without a usable partition prefix.
var errCorruptRun = errors.New("mapreduce: corrupt run record")

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

// writeRun merges the runs on from into one plain run named name on to.
func writeRun(from storage.Disk, runs []extsort.Run, to storage.Disk, name string) error {
	w, err := extsort.CreateRawRun(to, name)
	if err != nil {
		return err
	}
	err = extsort.MergeRuns(from, runs, w.Write)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// mergeFetched streams the records of the runs on disk and then of those in
// mem to emit, merged as MergeRuns merges one disk's: by their key bytes,
// equal keys from the earlier run first.
func mergeFetched(disk storage.Disk, onDisk []extsort.Run, mem storage.Disk, inMem []extsort.Run,
	emit func(key, value []byte) error) error {

	sources := make([]extsort.Source[storage.Record], 0, len(onDisk)+len(inMem))
	var open []io.Closer
	defer func() {
		for _, src := range open {
			src.Close()
		}
	}()
	for _, at := range []struct {
		disk storage.Disk
		runs []extsort.Run
	}{{disk, onDisk}, {mem, inMem}} {
		for _, run := range at.runs {
			src, err := extsort.OpenRawRun(at.disk, run.Name)
			if err != nil {
				return err
			}
			sources, open = append(sources, src), append(open, src)
		}
	}
	return extsort.Merge(sources, func(a, b storage.Record) int { return bytes.Compare(a.Key, b.Key) },
		func(rc storage.Record, _ int) error { return emit(rc.Key, rc.Value) })
}

func (j *jobRun) runReduceTask(r, attempt int, maps []*mapResult) (fetched int64, rerr error) {
	job, reg, inj, tr := j.job, j.sub.Metrics, j.sub.Faults, j.sub.Trace
	tag, heap := j.tag, j.cfg.ReduceHeapBytes
	site := fmt.Sprintf("reduce-%05d", r)
	ct, err := j.c.Yarn().Allocate(containerMB, -1)
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
	// A fetched section becomes a plain run of run keys and encoded values in
	// mem, a disk made of the task's own memory, uncharged: Hadoop's
	// in-memory shuffle. Before a section would take what mem holds past
	// half the heap, the runs there are merged into one run on the node's
	// disk and mem fills again from empty, as Hadoop's InMemoryMerger does;
	// a section larger than half the heap by itself follows them to the
	// disk as it is. Either way the disk's runs are in map-task order.
	mem := storage.NewMemDisk(0)
	var memRuns, diskRuns []extsort.Run
	var payload int64 // of the runs in mem

	// toDisk merges the runs on from, of n payload bytes, into the next run
	// on the node's disk and counts it.
	toDisk := func(from storage.Disk, runs []extsort.Run, n int64) error {
		name := fmt.Sprintf("%s/fetch-%05d", taskName, len(diskRuns))
		diskRuns = append(diskRuns, extsort.Run{Name: name})
		if err := writeRun(from, runs, disk, name); err != nil {
			return err
		}
		reg.Inc("mr.reduce.disk.merges")
		if tr.Enabled() {
			tr.Instant(node, tag+"/"+tname,
				fmt.Sprintf("%s/%s/rspill-%05d", tag, tname, len(diskRuns)-1), "spill", n)
		}
		return nil
	}

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
		if payload+seg.Payload > heap/2 && len(memRuns) > 0 {
			err := toDisk(mem, memRuns, payload)
			for _, run := range memRuns {
				_ = mem.Remove(run.Name)
			}
			if err != nil {
				return fetched, fmt.Errorf("%s merge to disk: %w", taskName, err)
			}
			memRuns, payload = memRuns[:0], 0
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
		var err error
		if seg.Payload > heap/2 {
			err = toDisk(j.c.Disk(mr.node), []extsort.Run{part}, seg.Payload)
		} else {
			name := fmt.Sprintf("map-%05d", mi)
			memRuns = append(memRuns, extsort.Run{Name: name})
			payload += seg.Payload
			err = writeRun(j.c.Disk(mr.node), []extsort.Run{part}, mem, name)
		}
		if err != nil {
			return fetched, fmt.Errorf("%s fetch %s: %w", taskName, part.Name, err)
		}
		fsp.EndBytes(seg.Len)
		if mr.node != node {
			remoteBytes[mr.node] += seg.Len
		}
		fetched += seg.Len
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
		j.c.Net().Transfer(transport.NodeID(src), transport.NodeID(node), n)
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
	em := &taskEmitter{task: taskName, heap: heap}
	var text []byte // the sink's format scratch; out gathers whole blocks
	em.sink = func(kv core.KV) error {
		text = core.AppendLine(text[:0], kv)
		_, err := out.Write(text)
		return err
	}

	// One merge over the runs, in map-task order: the disk's in the order
	// they were written, then those still in memory, which stay there as
	// they would had none gone to the disk. A value is first decoded here,
	// on its way into Reduce.
	groups := &groupReducer{red: job.NewReducer(), em: em}
	if err = mergeFetched(disk, diskRuns, mem, memRuns, groups.add); err == nil {
		err = groups.flush()
	}
	for _, run := range diskRuns {
		_ = disk.Remove(run.Name)
	}
	if err != nil {
		return fetched, fmt.Errorf("%s: %w", taskName, err)
	}

	return fetched, out.Close()
}
