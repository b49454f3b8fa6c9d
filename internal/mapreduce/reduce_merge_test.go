package mapreduce

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/faults"
)

// outputHash folds a job's part files, names and bytes, into one hash.
func outputHash(t testing.TB, c *cluster.Cluster) string {
	t.Helper()
	h := sha256.New()
	for _, f := range c.FS().List("out/") {
		data, err := c.FS().ReadFile(f, -1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// killSomeReducers returns a fault config under which at least one of the
// job's reduce tasks is killed on its first attempt and every one of them
// gets through within its four.
func killSomeReducers(t *testing.T, reduces int) *faults.Config {
	t.Helper()
	for seed := int64(1); seed < 100; seed++ {
		cfg := faults.Config{Seed: seed, KillReduce: 0.5}
		inj := faults.New(cfg, 1, nil)
		killed, stuck := false, false
		for r := 0; r < reduces; r++ {
			site := fmt.Sprintf("reduce-%05d", r)
			killed = killed || inj.WouldKillReduce(site, 0)
			stuck = stuck || (inj.WouldKillReduce(site, 0) && inj.WouldKillReduce(site, 1) &&
				inj.WouldKillReduce(site, 2) && inj.WouldKillReduce(site, 3))
		}
		if killed && !stuck {
			return &cfg
		}
	}
	t.Fatal("no seed kills some reducer once and none four times")
	return nil
}

// TestReducePlacementsAgree runs one job with its reducers' fetched
// sections all in memory, moved to disk part of the way through the fetch,
// and all on disk, and with reduce attempts killed between fetch and merge:
// where the bytes were is not to show in the output, and a task leaves
// nothing on its disk either way.
func TestReducePlacementsAgree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input []byte
		job   Job
	}{
		{"terasort", []byte(teraRows(3000)), identitySortJob(3)},
		{"wordcount+combiner", datagen.Text(datagen.TextConfig{Seed: 3, Vocabulary: 300, Lines: 400}), wordCountJob(true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kill := killSomeReducers(t, tc.job.NumReduces)
			var want string
			// cell runs the job once and holds it to the first cell's output;
			// it returns the job's result and how many sections went to disk.
			cell := func(heap int64, fc *faults.Config) (*Result, int64) {
				c, err := cluster.New(cluster.Options{NumNodes: 2, HDFSBlockSize: 4 << 10, Faults: fc})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if err := c.FS().WriteFile("in/data", tc.input, -1); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("heap %d, faults %v", heap, fc != nil)
				c.Substrate().Faults.Arm()
				res, err := NewEngine(c, Config{ReduceHeapBytes: heap}).Run(tc.job)
				c.Substrate().Faults.Disarm()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := outputHash(t, c); want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s: output hash %s, want %s as in the first cell", name, got, want)
				}
				if left := mapFilesLeft(c); len(left) > 0 {
					t.Errorf("%s: the job left %v", name, left)
				}
				if fc != nil && c.Metrics().Counter("mr.task.retries").Value() == 0 {
					t.Errorf("%s: no reduce attempt was killed", name)
				}
				return res, c.Metrics().Counter("mr.reduce.disk.merges").Value()
			}
			// Half the heap is the in-memory shuffle budget, so the heaps
			// come from what the job's sections measure, with room for all
			// of them — not from literals a change of the value codec
			// leaves on one side of every section: a heap of four times the
			// whole shuffle holds every reducer's sections, one of a
			// reducer's mean share the first half of them, and one of the
			// mean section none, while it still holds any one group's
			// values (terasort [0 31 63], wordcount+combiner [0 9 21]).
			probe, _ := cell(1<<30, nil)
			shuffle, sections := probe.ShuffleBytes, int64(probe.MapTasks*probe.ReduceTasks)
			heaps := [3]int64{4 * shuffle, shuffle / int64(probe.ReduceTasks), shuffle / sections}
			var merges [3]int64
			for i, heap := range heaps {
				_, merges[i] = cell(heap, nil)
				cell(heap, kill)
			}
			if merges[0] != 0 || merges[1] <= 0 || merges[1] >= merges[2] {
				t.Errorf("heaps %v: %v segments fetched to disk, want none, some and all", heaps, merges)
			}
		})
	}
}

// reduceFixture is the map output of 200 000 records with distinct 10-byte
// keys and 16-byte values, written by four map tasks for reduceFixtureTasks
// reducers on a one-node cluster, and the engine to run reduce tasks over
// it.
const reduceFixtureTasks = 4

func reduceFixture(tb testing.TB) (*Engine, []*mapResult, int) {
	tb.Helper()
	const records, maps, reduces = 200_000, 4, reduceFixtureTasks
	c := newTestCluster(tb, 1)
	e := NewEngine(c, Config{SortBufferBytes: 1 << 20})
	results := make([]*mapResult, maps)
	j := e.newJobRun(context.Background(), Job{NumReduces: reduces})
	for m := range results {
		name := fmt.Sprintf("jobX/map-%05d", m)
		em := &taskEmitter{task: name}
		mt := j.newMapTask(name, "map", 0, em)
		for i := m; i < records; i += maps {
			kv := core.KV{Key: fmt.Sprintf("%010d", (i*7919)%records), Value: fmt.Sprintf("%08d-payload", i)}
			if err := mt.collect(kv, em); err != nil {
				tb.Fatal(err)
			}
		}
		out, err := mt.finish()
		if err != nil {
			tb.Fatal(err)
		}
		results[m] = &mapResult{node: 0, out: out}
	}
	return e, results, records
}

// TestReduceAllocsPerRecord bounds what the reduce side of a job allocates
// per record from the fetch to the written output, with an identity
// reducer: the decoded value, the key of its group, the output's HDFS
// blocks, and the pages of the fetched segments when they stay in memory.
// Measured: 3.06 allocations and 122 B per record in memory, 3.06 and 80 B
// from disk. The typed merge this replaced (every record decoded into a
// rec at the fetch or at the merge, a values slice made per group)
// measured 4.06 and 137 B, and 4.06 and 96 B, on the same input at the
// parent commit.
func TestReduceAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted in MemStats")
	}
	e, maps, records := reduceFixture(t)
	run := 0
	for _, tc := range []struct {
		name      string
		heap      int64
		maxAllocs float64
		maxBytes  float64
	}{
		{"memory", 64 << 20, 3.5, 130},
		{"disk", 4 << 10, 3.5, 88},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reduce := func() (allocs, bytes float64) {
				run++
				job := identitySortJob(reduceFixtureTasks)
				job.Output = fmt.Sprintf("out%d", run)
				job.ReduceHeapBytes = tc.heap
				j := e.newJobRun(context.Background(), job)
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for r := 0; r < reduceFixtureTasks; r++ {
					if _, err := j.runReduceTask(r, 0, maps); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&m1)
				return float64(m1.Mallocs-m0.Mallocs) / float64(records), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(records)
			}
			reduce() // fills the disk's page list and the record readers' free lists
			allocs, bytes := reduce()
			t.Logf("reduce side, per record: %.2f allocs, %.1f B (bounds %.1f, %.0f B)", allocs, bytes, tc.maxAllocs, tc.maxBytes)
			if allocs > tc.maxAllocs || bytes > tc.maxBytes {
				t.Errorf("reduce side allocated %.2f objects, %.1f B per record", allocs, bytes)
			}
		})
	}
}
