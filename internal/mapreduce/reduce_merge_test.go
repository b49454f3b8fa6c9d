package mapreduce

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/storage"
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
// sections all in memory, merged to disk once or several times on the way
// through the fetch, and nearly all on disk, and with reduce attempts killed
// between fetch and merge: where the bytes were is not to show in the
// output, and a task leaves nothing on its disk either way.
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
			// reducer's mean share fills once with the first half of them,
			// one of the mean section holds next to none, and one of half a
			// share fills with a quarter of them, two or more times a
			// reducer; each holds any one group's values. Runs merged to
			// disk: terasort [0 3 61 10], wordcount+combiner [0 3 21 9].
			probe, _ := cell(1<<30, nil)
			reduces := int64(probe.ReduceTasks)
			shuffle, sections := probe.ShuffleBytes, int64(probe.MapTasks)*reduces
			heaps := [4]int64{4 * shuffle, shuffle / reduces, shuffle / sections, shuffle / (2 * reduces)}
			var merges [4]int64
			for i, heap := range heaps {
				_, merges[i] = cell(heap, nil)
				cell(heap, kill)
			}
			if merges[0] != 0 || merges[1] <= 0 || merges[1] >= merges[2] {
				t.Errorf("heaps %v: %v runs merged to disk, want none, some and all", heaps, merges)
			}
			if merges[3] < 2*reduces {
				t.Errorf("heap %d: %d runs merged to disk by %d reducers, want two or more a reducer",
					heaps[3], merges[3], reduces)
			}
		})
	}
}

// writeMapOutputs runs the collect side of maps map tasks of a job with
// reduces reducers on node 0 of e's cluster, task m collecting what gen
// hands it, and returns their results.
func writeMapOutputs(tb testing.TB, e *Engine, maps, reduces int, gen func(m int, collect func(core.KV))) []*mapResult {
	tb.Helper()
	results := make([]*mapResult, maps)
	j := e.newJobRun(context.Background(), Job{NumReduces: reduces})
	for m := range results {
		name := fmt.Sprintf("jobX/map-%05d", m)
		em := &taskEmitter{task: name}
		mt := j.newMapTask(name, "map", 0, em)
		gen(m, func(kv core.KV) {
			if err := mt.collect(kv, em); err != nil {
				tb.Fatal(err)
			}
		})
		out, err := mt.finish()
		if err != nil {
			tb.Fatal(err)
		}
		results[m] = &mapResult{node: 0, out: out}
	}
	return results
}

// reduceFixture is the map output of 200 000 records with distinct 10-byte
// keys and 16-byte values, written by four map tasks for reduceFixtureTasks
// reducers on a one-node cluster, and the engine to run reduce tasks over
// it.
const reduceFixtureTasks = 4

func reduceFixture(tb testing.TB) (*Engine, []*mapResult, int) {
	tb.Helper()
	const records, maps = 200_000, 4
	e := NewEngine(newTestCluster(tb, 1), Config{SortBufferBytes: 1 << 20})
	results := writeMapOutputs(tb, e, maps, reduceFixtureTasks, func(m int, collect func(core.KV)) {
		for i := m; i < records; i += maps {
			collect(core.KV{Key: fmt.Sprintf("%010d", (i*7919)%records), Value: fmt.Sprintf("%08d-payload", i)})
		}
	})
	return e, results, records
}

// TestReduceMergesInMemory holds the reduce side's fetch to Hadoop's
// in-memory merge: fetched sections are held in memory until the next would
// take them past half the heap, and then merged into one run on the node's
// disk, so a reduce whose sections fill that budget k times writes k runs,
// not one a section; a section larger than the budget goes to the disk by
// itself, after what memory held. Either way the values of a key reach
// Reduce in map-task order and the output is the all-in-memory run's.
func TestReduceMergesInMemory(t *testing.T) {
	// reduce writes the map outputs gen makes on a fresh one-node cluster
	// and runs the job's one reduce task over them with the given heap. It
	// returns the sections' payloads, the files the reduce task created on
	// the node's disk, output blocks included, its disk merges and the
	// output's hash.
	reduce := func(t *testing.T, maps int, gen func(m int, collect func(core.KV)), job Job, heap int64) (
		payloads []int64, creates, merges int64, hash string) {

		c, err := cluster.New(cluster.Options{NumNodes: 1, HDFSBlockSize: 4 << 10, DiskModel: &storage.CostModel{}})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		e := NewEngine(c, Config{ReduceHeapBytes: heap})
		results := writeMapOutputs(t, e, maps, 1, gen)
		for _, mr := range results {
			payloads = append(payloads, mr.out.Sections[0].Payload)
		}
		reg := c.Metrics()
		before := reg.Counter("disk.write.ops").Value()
		if _, err := e.newJobRun(context.Background(), job).runReduceTask(0, 0, results); err != nil {
			t.Fatal(err)
		}
		for _, f := range c.Disk(0).List("job") {
			if strings.Contains(f, "/reduce-") {
				t.Errorf("heap %d: the reduce task left %s", heap, f)
			}
		}
		return payloads, reg.Counter("disk.write.ops").Value() - before,
			reg.Counter("mr.reduce.disk.merges").Value(), outputHash(t, c)
	}

	t.Run("k runs for k fills", func(t *testing.T) {
		// Twelve maps of 400 TeraSort rows with distinct keys: every section
		// carries the same payload, so a budget of n and a half sections
		// holds n of them and is filled once every n sections but the last
		// n.
		const maps, rows = 12, 400
		lines := strings.Split(teraRows(maps*rows), "\n")
		gen := func(m int, collect func(core.KV)) {
			for _, line := range lines[m*rows : (m+1)*rows] {
				k, v, _ := strings.Cut(line, " ")
				collect(core.KV{Key: k, Value: v})
			}
		}
		job := identitySortJob(1)
		payloads, createsInMem, merges, want := reduce(t, maps, gen, job, 1<<30)
		if merges != 0 {
			t.Fatalf("with every section in memory the reduce task merged %d runs to disk", merges)
		}
		section := payloads[0]
		for _, p := range payloads {
			if p != section {
				t.Fatalf("section payloads %v are not all alike", payloads)
			}
		}
		for _, holds := range []int64{5, 3, 1} {
			heap := 2 * (holds*section + section/2)
			k := (maps+holds-1)/holds - 1
			_, creates, merges, got := reduce(t, maps, gen, job, heap)
			if creates-createsInMem != k || merges != k {
				t.Errorf("heap holding %d sections: %d files created past the output's and %d disk merges, want %d runs",
					holds, creates-createsInMem, merges, k)
			}
			if got != want {
				t.Errorf("heap holding %d sections: output hash %s, want the all-in-memory run's %s", holds, got, want)
			}
		}
	})

	t.Run("oversized section between small ones", func(t *testing.T) {
		// Seven maps emit the same 200 keys once each, the value naming the
		// map; map 3's values carry 200 bytes more, which makes its section
		// larger than the budget, one of two and a half small sections.
		const maps, keys, big = 7, 200, 3
		gen := func(m int, collect func(core.KV)) {
			pad := ""
			if m == big {
				pad = strings.Repeat("x", 200)
			}
			for i := 0; i < keys; i++ {
				collect(core.KV{Key: fmt.Sprintf("key-%03d", i), Value: fmt.Sprintf("%02d%s", m, pad)})
			}
		}
		seen := 0
		job := identitySortJob(1)
		job.NewReducer = func() Reducer {
			return ReducerFunc(func(key string, values []any, out Emitter) error {
				seen++
				for i, v := range values {
					if s, _ := v.(string); len(values) != maps || s[:2] != fmt.Sprintf("%02d", i) {
						return fmt.Errorf("%s: value %d of %d is %.2q, want map %d's", key, i, len(values), s, i)
					}
				}
				return out.Emit(core.KV{Key: key, Value: int64(len(values))})
			})
		}
		payloads, _, _, want := reduce(t, maps, gen, job, 1<<30)
		small := payloads[0]
		heap := 2 * (2*small + small/2)
		if payloads[big] <= heap/2 {
			t.Fatalf("map %d's section of %d bytes fits the budget of %d", big, payloads[big], heap/2)
		}
		seen = 0
		_, _, merges, got := reduce(t, maps, gen, job, heap)
		if seen != keys {
			t.Errorf("Reduce saw %d keys, want %d", seen, keys)
		}
		// Maps 0 and 1 fill memory, then map 2 alone before map 3's section
		// goes to disk, then maps 4 and 5; map 6 stays in memory.
		if merges != 4 {
			t.Errorf("%d disk merges, want 4", merges)
		}
		if got != want {
			t.Errorf("output hash %s, want the all-in-memory run's %s", got, want)
		}
	})
}

// TestReduceAllocsPerRecord bounds what the reduce side of a job allocates
// per record from the fetch to the written output, with an identity
// reducer: the decoded value and the key of its group. The fetched
// segments' pages and the output's HDFS blocks come from lists the first
// run fills: the shuffle disk from the spill scratch, the blocks from
// HDFS's write list. Measured: 3.06 allocations and 79 B per record in
// memory and from disk; 122 B in memory while every reduce task made its
// own memory disk. The typed merge before that (every record decoded into
// a rec at the fetch or at the merge, a values slice made per group)
// measured 4.06 and 137 B, and 4.06 and 96 B, on the same input.
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
		{"memory", 64 << 20, 3.5, 88},
		{"disk", 4 << 10, 3.5, 88},
	} {
		t.Run(tc.name, func(t *testing.T) {
			he := NewEngine(e.c, Config{ReduceHeapBytes: tc.heap})
			reduce := func() (allocs, bytes float64) {
				run++
				job := identitySortJob(reduceFixtureTasks)
				job.Output = fmt.Sprintf("out%d", run)
				j := he.newJobRun(context.Background(), job)
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
			reduce() // fills the disks' page lists and the record readers' free lists
			allocs, bytes := reduce()
			t.Logf("reduce side, per record: %.2f allocs, %.1f B (bounds %.1f, %.0f B)", allocs, bytes, tc.maxAllocs, tc.maxBytes)
			if allocs > tc.maxAllocs || bytes > tc.maxBytes {
				t.Errorf("reduce side allocated %.2f objects, %.1f B per record", allocs, bytes)
			}
		})
	}
}
