// Package mapreduce implements a Hadoop-faithful MapReduce engine over the
// same simulated cluster substrate as the HAMR engine. It is the paper's
// comparison baseline (IDH 3.0) and deliberately reproduces the mechanisms
// §3 attributes Hadoop's behaviour to:
//
//   - input splits read from HDFS with block locality;
//   - a map-side sort buffer of serialized records that spills sorted runs
//     to local disk and merges them into one map output file, a section
//     per partition (all on-disk; a task that spilled once has nothing to
//     merge): a pair is encoded when the mapper emits it and not
//     decoded again before the reducer, unless a combiner folds it;
//   - an optional combiner applied at spill and merge time;
//   - a barrier between the map and reduce phases — reduce computation
//     starts only after every map task finished;
//   - a shuffle in which reduce tasks fetch their sections of the map
//     outputs across the network and merge them (externally, via local disk, when they exceed
//     the task heap);
//   - one "JVM" per task: tasks share nothing and carry an individual heap
//     limit, so a task whose working set exceeds its heap dies with an
//     out-of-memory error (§5.2, K-Cliques);
//   - per-job startup cost and HDFS materialization between chained jobs.
//
// Every job has a mapper and a reducer: the reducers write the job's part
// files, and a job without one is refused (there are no map-only jobs).
package mapreduce

import (
	"fmt"
	"time"

	"github.com/hamr-go/hamr/internal/core"
)

// Emitter receives pairs from mappers, combiners and reducers. Charge
// models allocation of user data structures against the task's heap;
// exceeding the heap fails the task with an *OOMError.
type Emitter interface {
	Emit(kv core.KV) error
	Charge(bytes int64) error
}

// Mapper transforms one input pair. For text input the key is the HDFS
// file the line was read from and the value is one line. A fresh Mapper is
// created per task (the one-JVM-per-task model: no shared state between
// tasks). The line is a view of its HDFS block (hdfs.LineIterator):
// keeping it, or any part of it, past the call keeps the whole block alive,
// so a mapper that keeps one copies it (strings.Clone). What it emits is
// encoded at once.
type Mapper interface {
	Map(kv core.KV, out Emitter) error
}

// Reducer processes one key with all its values. The key and each value
// are the call's own and may be kept; the values slice is not — a reduce
// task decodes every group into the same one, and a combiner's is scratch
// its node lends the next spill, maybe another task's, once this one is
// written — so a reducer (or a combiner, see Job.NewCombiner) that wants
// the slice past the call copies it.
type Reducer interface {
	Reduce(key string, values []any, out Emitter) error
}

// MapperFunc adapts a function to Mapper.
type MapperFunc func(kv core.KV, out Emitter) error

// Map implements Mapper.
func (f MapperFunc) Map(kv core.KV, out Emitter) error { return f(kv, out) }

// ReducerFunc adapts a function to Reducer.
type ReducerFunc func(key string, values []any, out Emitter) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values []any, out Emitter) error {
	return f(key, values, out)
}

// Job describes one MapReduce job.
type Job struct {
	Name string
	// InputPrefixes are HDFS path prefixes; every matching file is split.
	InputPrefixes []string
	// Output is the HDFS prefix receiving part files.
	Output string
	// NewMapper creates one mapper per map task (required).
	NewMapper func() Mapper
	// NewReducer creates one reducer per reduce task (required): every job
	// sorts, shuffles and reduces, and its reducers write the part files.
	NewReducer func() Reducer
	// NewCombiner, if non-nil, is applied to map output at spill and merge
	// time (Hadoop's combiner): one combiner per spill run and one for the
	// final merge, which folds only groups of two records or more. A
	// combiner works on records that are already encoded and is fed them
	// one at a time, in key order, as the spill or merge streams them: a
	// group's values are decoded as they arrive into a slice borrowed from
	// the map tasks' spill scratch, which the next group and then the next
	// spill reuse, and what it emits is encoded before Emit returns. It must
	// keep neither the values slice nor the emitter past the call.
	NewCombiner func() Reducer
	// NumReduces is the reduce task count (defaultReduces when <= 0).
	NumReduces int
}

// Config holds engine-wide defaults, scaled-down analogues of stock Hadoop
// settings. The YARN container every task requests is containerMB.
type Config struct {
	// SortBufferBytes is the map-side sort buffer (io.sort.mb).
	SortBufferBytes int64
	// MergeFactor is the maximum number of runs merged in one pass
	// (io.sort.factor); more spills mean extra read+write passes over the
	// intermediate data.
	MergeFactor int
	// ReduceHeapBytes is the per-reduce-task heap limit; a map task's is
	// mapHeapBytes.
	ReduceHeapBytes int64
	// JobStartup is charged once per job (JVM/AppMaster launch).
	JobStartup time.Duration
	// TaskStartup is charged once per task.
	TaskStartup time.Duration
}

// FillDefaults replaces zero fields.
func (c *Config) FillDefaults() {
	if c.SortBufferBytes <= 0 {
		c.SortBufferBytes = 1 << 20
	}
	if c.MergeFactor <= 0 {
		c.MergeFactor = 10
	}
	if c.ReduceHeapBytes <= 0 {
		c.ReduceHeapBytes = 64 << 20
	}
}

// containerMB is the container size every map and reduce task requests
// from YARN.
const containerMB = 512

// mapHeapBytes is every map task's heap limit.
const mapHeapBytes = 64 << 20

// defaultReduces is a job's reduce task count when it sets none.
const defaultReduces = 4

// OOMError reports a task exceeding its modeled heap.
type OOMError struct {
	Task string
	Need int64
	Heap int64
}

// Error implements error.
func (e *OOMError) Error() string {
	return fmt.Sprintf("mapreduce: %s: java.lang.OutOfMemoryError (simulated): needs %d bytes, heap %d",
		e.Task, e.Need, e.Heap)
}

// Result reports a completed job (or chain).
type Result struct {
	Name         string
	Duration     time.Duration
	MapTasks     int
	ReduceTasks  int
	ShuffleBytes int64
	OutputFiles  []string
	// Jobs holds per-job results for a chain.
	Jobs []*Result
}
