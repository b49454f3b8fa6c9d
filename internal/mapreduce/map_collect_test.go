package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
)

// seqCombiner checks what a combiner is handed and folds it. Map output
// values are "<key>:<seq>", a combined value is "<key>:<seq>+<seq>+…": a
// value that belongs to another group, or a group out of arrival order,
// shows in the value itself even though the engine reuses one values
// slice, one emitter and its decode scratch for every group.
type seqCombiner struct {
	calls   *atomic.Int64
	ordered bool // map-side: seqs must rise along the group
}

func (c *seqCombiner) Reduce(key string, values []any, out Emitter) error {
	c.calls.Add(1)
	var seqs []string
	prev := -1
	for _, v := range values {
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("key %q: value %#v is not a string", key, v)
		}
		head, list, ok := strings.Cut(s, ":")
		if !ok || head != key {
			return fmt.Errorf("key %q was handed value %q", key, s)
		}
		for _, f := range strings.Split(list, "+") {
			n, err := strconv.Atoi(f)
			if err != nil {
				return fmt.Errorf("key %q: %w", key, err)
			}
			if c.ordered && n <= prev {
				return fmt.Errorf("key %q: seq %d after %d", key, n, prev)
			}
			prev = n
			seqs = append(seqs, f)
		}
	}
	return out.Emit(core.KV{Key: key, Value: key + ":" + strings.Join(seqs, "+")})
}

func TestCombinerSeesItsGroup(t *testing.T) {
	c := newTestCluster(t, 2)
	// One split, so seq — the running count of words — rises along every
	// group the map task's combiner sees.
	words := []string{"ant", "bee", "cat", "dog", "elk", "fox", "", "a-much-longer-key-than-the-others"}
	var sb strings.Builder
	want := map[string][]string{}
	seq := 0
	for line := 0; line < 100; line++ {
		for j := 0; j < 5; j++ {
			w := words[(line*7+j*3)%len(words)]
			if w == "" {
				w = "_"
			}
			want[w] = append(want[w], strconv.Itoa(seq))
			seq++
			sb.WriteString(w + " ")
		}
		sb.WriteByte('\n')
	}
	if sb.Len() > 4<<10 {
		t.Fatalf("corpus is %d bytes: more than one split", sb.Len())
	}
	if err := c.FS().WriteFile("in/words", []byte(sb.String()), -1); err != nil {
		t.Fatal(err)
	}
	var combines, reduces atomic.Int64
	// A 1 KiB buffer spills ~25 times; factor 4 leaves several runs for the
	// final merge, so groups are folded at spill time and at merge time.
	e := NewEngine(c, Config{SortBufferBytes: 1 << 10, MergeFactor: 4})
	_, err := e.Run(Job{
		Name:          "seq",
		InputPrefixes: []string{"in/"},
		Output:        "out",
		NumReduces:    3,
		NewMapper: func() Mapper {
			n := 0
			return MapperFunc(func(kv core.KV, out Emitter) error {
				for _, w := range strings.Fields(kv.Value.(string)) {
					if err := out.Emit(core.KV{Key: w, Value: w + ":" + strconv.Itoa(n)}); err != nil {
						return err
					}
					n++
				}
				return nil
			})
		},
		NewCombiner: func() Reducer { return &seqCombiner{calls: &combines, ordered: true} },
		NewReducer:  func() Reducer { return &seqCombiner{calls: &reduces} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if spills, passes := c.Metrics().Counter("mr.spills").Value(), c.Metrics().Counter("mr.merge.passes").Value(); spills < 10 || passes < 1 {
		t.Fatalf("%d spills, %d merge passes: the scenario is too small", spills, passes)
	}
	if combines.Load() <= c.Metrics().Counter("mr.spills").Value()*int64(len(words)) {
		t.Errorf("%d combiner calls: the final merge folded nothing", combines.Load())
	}
	got := map[string]string{}
	for _, f := range c.FS().List("out/") {
		data, err := c.FS().ReadFile(f, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			k, v, _ := strings.Cut(line, "\t")
			got[k] = v
		}
	}
	for w, seqs := range want {
		if wantLine := w + ":" + strings.Join(seqs, "+"); got[w] != wantLine {
			t.Errorf("key %q reduced to %q, want %q", w, got[w], wantLine)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d keys in the output, want %d", len(got), len(want))
	}
}

// mapFilesLeft lists what map tasks left on the cluster's local disks.
func mapFilesLeft(c *cluster.Cluster) []string {
	var left []string
	for _, d := range c.Disks() {
		left = append(left, d.List("job")...)
	}
	return left
}

// A value the codec cannot encode now fails in collect, not at the spill:
// the attempt must fail under its task's name, roll back the spills it
// had written, and be retried like any other failure.
func TestMapUnencodableValue(t *testing.T) {
	job := func(bad func() bool) Job {
		return Job{
			Name:          "unencodable",
			InputPrefixes: []string{"in/"},
			Output:        "out",
			NumReduces:    2,
			NewMapper: func() Mapper {
				return MapperFunc(func(kv core.KV, out Emitter) error {
					for i := 0; i < 200; i++ { // enough to spill first
						if err := out.Emit(core.KV{Key: fmt.Sprintf("k%03d", i), Value: int64(i)}); err != nil {
							return err
						}
					}
					if bad() {
						return out.Emit(core.KV{Key: "bad", Value: make(chan int)})
					}
					return nil
				})
			},
			NewReducer: func() Reducer { return wcReducer{} },
		}
	}

	t.Run("every attempt", func(t *testing.T) {
		c := newTestCluster(t, 2)
		if err := c.FS().WriteFile("in/one", []byte("line\n"), -1); err != nil {
			t.Fatal(err)
		}
		_, err := NewEngine(c, Config{SortBufferBytes: 1 << 10}).Run(job(func() bool { return true }))
		if err == nil || !strings.Contains(err.Error(), "/map-00000") || !strings.Contains(err.Error(), "chan int") {
			t.Fatalf("Run = %v, want the task's name and the value's type", err)
		}
		reg := c.Metrics()
		if spills, retries := reg.Counter("mr.spills").Value(), reg.Counter("mr.task.retries").Value(); spills == 0 || retries != 3 {
			t.Errorf("%d spills, %d retries, want spills before the failure and 3 retries", spills, retries)
		}
		if left := mapFilesLeft(c); len(left) > 0 {
			t.Errorf("failed attempts left %v", left)
		}
	})

	t.Run("first attempt", func(t *testing.T) {
		c := newTestCluster(t, 2)
		if err := c.FS().WriteFile("in/one", []byte("line\n"), -1); err != nil {
			t.Fatal(err)
		}
		var once sync.Once
		firstOnly := func() (bad bool) { once.Do(func() { bad = true }); return bad }
		if _, err := NewEngine(c, Config{SortBufferBytes: 1 << 10}).Run(job(firstOnly)); err != nil {
			t.Fatal(err)
		}
		if retries := c.Metrics().Counter("mr.task.retries").Value(); retries != 1 {
			t.Errorf("%d retries, want 1", retries)
		}
		lines := 0
		for _, f := range c.FS().List("out/") {
			data, _ := c.FS().ReadFile(f, -1)
			lines += strings.Count(string(data), "\n")
		}
		if lines != 200 {
			t.Errorf("the retry produced %d keys, want 200", lines)
		}
		if left := mapFilesLeft(c); len(left) > 0 {
			t.Errorf("the job left %v", left)
		}
	})
}

// One record larger than a block of the sort buffer's storage and one
// larger than the whole buffer each go through collect, a spill of their
// own, the merge and the shuffle and come out as they went in.
func TestMapLargeRecordsRoundTrip(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.FS().WriteFile("in/one", []byte("line\n"), -1); err != nil {
		t.Fatal(err)
	}
	const sortBuffer = 64 << 10
	overBuffer := strings.Repeat("0123456789abcdef", (sortBuffer+1024)/16)
	overBlock := strings.Repeat("fedcba9876543210", (20<<10)/16) // the buffer grows in 16 KiB blocks
	var spillsAfterFirst int64
	_, err := NewEngine(c, Config{SortBufferBytes: sortBuffer}).Run(Job{
		Name:          "large",
		InputPrefixes: []string{"in/"},
		Output:        "out",
		NumReduces:    1,
		NewMapper: func() Mapper {
			return MapperFunc(func(kv core.KV, out Emitter) error {
				if err := out.Emit(core.KV{Key: "b-over-buffer", Value: overBuffer}); err != nil {
					return err
				}
				spillsAfterFirst = c.Metrics().Counter("mr.spills").Value()
				if err := out.Emit(core.KV{Key: "a-over-block", Value: overBlock}); err != nil {
					return err
				}
				return out.Emit(core.KV{Key: "c-small", Value: "small"})
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key string, values []any, out Emitter) error {
				return out.Emit(core.KV{Key: key, Value: values[0]})
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spillsAfterFirst != 1 {
		t.Errorf("%d spills after the record larger than the buffer, want it spilled alone", spillsAfterFirst)
	}
	if spills := c.Metrics().Counter("mr.spills").Value(); spills != 2 {
		t.Errorf("%d spills, want 2", spills)
	}
	data, err := c.FS().ReadFile("out/part-r-00000", -1)
	if err != nil {
		t.Fatal(err)
	}
	want := "a-over-block\t" + overBlock + "\nb-over-buffer\t" + overBuffer + "\nc-small\tsmall\n"
	if string(data) != want {
		t.Errorf("output is %d bytes, want %d: the records did not round-trip", len(data), len(want))
	}
}

// mapCollectFixture is n (8-byte key, int64) pairs over 4 000 distinct
// keys and a map task to push them through, on a one-node cluster. With
// hot set it is histogram_ratings' shape instead: the pairs are five rating
// keys, each counted 1, and the job sums them in a combiner.
func mapCollectFixture(tb testing.TB, n int, hot bool) ([]core.KV, func() (*mapTask, *taskEmitter)) {
	tb.Helper()
	kvs := make([]core.KV, n)
	job := Job{NumReduces: 4}
	for i := range kvs {
		kvs[i] = core.KV{Key: fmt.Sprintf("k%07d", (i*7919)%4000), Value: int64(i)}
		if hot {
			kvs[i] = core.KV{Key: strconv.Itoa(1 + (i*7)%5), Value: int64(1)}
		}
	}
	if hot {
		job.NewCombiner = func() Reducer { return wcReducer{} }
	}
	c := newTestCluster(tb, 1)
	j := NewEngine(c, Config{SortBufferBytes: 1 << 20}).newJobRun(context.Background(), job)
	task := 0
	return kvs, func() (*mapTask, *taskEmitter) {
		task++
		name := fmt.Sprintf("jobX/map-%05d", task)
		em := &taskEmitter{task: name}
		return j.newMapTask(name, "map", 0, em), em
	}
}

// runMapSide pushes kvs through collect, the spills and finish, and drops
// the output.
func runMapSide(tb testing.TB, mt *mapTask, em *taskEmitter, kvs []core.KV) {
	tb.Helper()
	for _, kv := range kvs {
		if err := mt.collect(kv, em); err != nil {
			tb.Fatal(err)
		}
	}
	out, err := mt.finish()
	if err != nil {
		tb.Fatal(err)
	}
	if err := mt.disk.Remove(out.Name); err != nil {
		tb.Fatal(err)
	}
}

// TestMapCollectAllocsPerRecord bounds what the map side of a task
// allocates per record from collect to the finished output, the second
// task on its node: nothing per record in the sort buffer, the spills or
// the merge — the buffer's blocks, the index and the combiner's values are
// the node's scratch, which the first task made. Measured: 0.1 B and 0.001
// allocations per record; 3.1 B when every task made its own blocks, 6.1 B
// when it also grew an index of its own, and 29.2 B and 2.0 allocations
// with the typed buffer before that (a []rec doubled to its final size,
// every record decoded again by the final merge). The hot variant is
// histogram_ratings' shape, five keys folded by a combiner at every spill
// and in the merge: measured 0.0 B and 0.001 allocations per record,
// against 2.0 B with blocks of its own and 6.8 B when every spill built
// its group slices and every combiner grew its own values.
func TestMapCollectAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted in MemStats")
	}
	const records = 200_000
	for _, tc := range []struct {
		name              string
		hot               bool
		maxBytesPerRecord float64
		maxAllocsPerRec   float64
	}{
		{"distinct", false, 1, 0.01},
		{"hot", true, 1, 0.01},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kvs, newTask := mapCollectFixture(t, records, tc.hot)
			run := func() (allocs, bytes float64) {
				mt, em := newTask()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				runMapSide(t, mt, em, kvs)
				runtime.ReadMemStats(&m1)
				return float64(m1.Mallocs-m0.Mallocs) / records, float64(m1.TotalAlloc-m0.TotalAlloc) / records
			}
			run() // makes the node's scratch, fills the disk's page list and the record writers' free lists
			allocs, bytes := run()
			t.Logf("map side, per record: %.4f allocs, %.1f B (bounds %.2f, %.0f B)", allocs, bytes, tc.maxAllocsPerRec, tc.maxBytesPerRecord)
			if allocs > tc.maxAllocsPerRec || bytes > tc.maxBytesPerRecord {
				t.Errorf("map side allocated %.4f objects, %.1f B per record", allocs, bytes)
			}
		})
	}
}

// BenchmarkMapCollect times the same path: 200 000 pairs through collect,
// six spills, and the merge into one output of four sections.
func BenchmarkMapCollect(b *testing.B) {
	const records = 200_000
	kvs, newTask := mapCollectFixture(b, records, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mt, em := newTask()
		runMapSide(b, mt, em, kvs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
}
