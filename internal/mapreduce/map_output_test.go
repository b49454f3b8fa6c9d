package mapreduce

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/storage"
)

// fileLedger records a hash of every file the tasks of a job write to their
// local disks — the map side's spill runs, intermediate merge runs and
// output segments, the reduce side's fetch runs — most of which are gone
// again before the job returns.
type fileLedger struct {
	mu    sync.Mutex
	files map[string]string // name without the job number → size and sha256
}

var taskFile = regexp.MustCompile(`^job\d+/(map-\d+/(spill|interm|segment)-\d+|reduce-\d+/fetch-\d+)$`)

// watch puts the ledger between the cluster and each of its local disks.
// Cluster.Disks returns the slice the cluster itself indexes, so every
// task's Disk(node) sees the wrapper.
func (l *fileLedger) watch(c *cluster.Cluster) {
	l.files = map[string]string{}
	disks := c.Disks()
	for i, d := range disks {
		disks[i] = ledgerDisk{Disk: d, l: l}
	}
}

// digest folds the files whose name contains kind into one hash and counts
// them.
func (l *fileLedger) digest(kind string) (hash string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var names []string
	for name := range l.files {
		if strings.Contains(name, kind) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s %s\n", name, l.files[name])
	}
	return fmt.Sprintf("%x", h.Sum(nil)), len(names)
}

type ledgerDisk struct {
	storage.Disk
	l *fileLedger
}

func (d ledgerDisk) Create(name string) (io.WriteCloser, error) {
	f, err := d.Disk.Create(name)
	m := taskFile.FindStringSubmatch(name)
	if err != nil || m == nil {
		return f, err
	}
	return &ledgerFile{WriteCloser: f, l: d.l, name: m[1], h: sha256.New()}, nil
}

type ledgerFile struct {
	io.WriteCloser
	l    *fileLedger
	name string
	h    hash.Hash
	size int64
}

func (f *ledgerFile) Write(p []byte) (int, error) {
	n, err := f.WriteCloser.Write(p)
	f.h.Write(p[:n])
	f.size += int64(n)
	return n, err
}

func (f *ledgerFile) Close() error {
	err := f.WriteCloser.Close()
	f.l.mu.Lock()
	if _, dup := f.l.files[f.name]; dup {
		f.l.files[f.name] = "written twice"
	} else {
		f.l.files[f.name] = fmt.Sprintf("%d %x", f.size, f.h.Sum(nil))
	}
	f.l.mu.Unlock()
	return err
}

// TestMapOutputFilesMatchPinnedBaseline pins, for two jobs whose map tasks
// spill at least three times and merge in at least two passes, a hash of
// every spill, intermediate and segment file the map side writes, the
// job's output, and the engine's counters. The values were recorded at the
// commit before the map-side sort buffer held bytes (PR 15), where records
// sat in a typed buffer, were encoded at spill and decoded again by the
// final merge: the files the byte path writes are those files. The hash of
// the reduce side's fetch runs was recorded at the commit before the
// reduce task merged bytes (PR 16), where the runs of segments fetched
// into memory were encoded from decoded records.
func TestMapOutputFilesMatchPinnedBaseline(t *testing.T) {
	sumReducer := func() Reducer { return wcReducer{} }
	for _, tc := range []struct {
		name    string
		input   []byte
		cfg     Config
		job     Job
		files   string // ledger digest
		counts  [3]int // spill, intermediate, segment files
		fetch   string // ledger digest of the fetch runs
		nfetch  int
		output  string
		metrics map[string]int64
	}{
		{
			// The combiner runs on every spill and again, on groups the
			// runs share, in the final merge. A single reduce on node 0
			// and room for every map on its preferred node make the
			// remote share of the shuffle exact (see the invariance
			// harness in internal/bench), so all six counters are pinned.
			name:  "wordcount+combiner",
			input: datagen.Text(datagen.TextConfig{Seed: 11, Vocabulary: 300, Lines: 500}),
			cfg:   Config{SortBufferBytes: 2 << 10, MergeFactor: 3},
			job: Job{
				Name:          "wordcount",
				InputPrefixes: []string{"in/"},
				Output:        "out",
				NumReduces:    1,
				NewMapper:     func() Mapper { return wcMapper{} },
				NewCombiner:   sumReducer,
				NewReducer:    sumReducer,
			},
			files:  "eb2e4adb2548bf6bef13a35ff4bb99d6a972eafcb040890671b254439d112857",
			counts: [3]int{74, 30, 5},
			fetch:  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // of nothing
			output: "2f01e8b1c42a2802c59d6df3df2868f4f4e9dbd3a2f3f1c564a80b06b8c73cda",
			metrics: map[string]int64{
				"mr.spills": 74, "mr.spill.bytes": 150000, "mr.merge.passes": 30,
				"mr.combines": 74, "mr.shuffle.bytes": 16847, "mr.reduce.disk.merges": 0,
			},
		},
		{
			// No combiner, string values, four partitions: every record
			// passes through collect, a spill, merge passes and the cut
			// into per-partition segments untouched. With four reduce
			// tasks racing for containers the remote share of the shuffle
			// follows the schedule, so mr.shuffle.bytes is left out.
			name:   "terasort",
			input:  []byte(teraRows(4000)),
			cfg:    Config{SortBufferBytes: 2 << 10, MergeFactor: 3, ReduceHeapBytes: 16 << 10},
			job:    identitySortJob(4),
			files:  "f5477cbbe225ebce0a840e5d25d04161e6f83f2ca2b484da154202b46a67a5b2",
			counts: [3]int{123, 41, 56},
			// Every reducer crosses its in-memory budget part of the way
			// through its fetch: 12 of the runs were written from memory.
			fetch:  "7d4c0971270f91c9ec92477858e3d1c16e74dd6e55ba032dc76babb356535be1",
			nfetch: 56,
			output: "64b3f8c737b492a0d206a7932891084b62184a61634ca5baab4ef46d93595c15",
			metrics: map[string]int64{
				"mr.spills": 123, "mr.spill.bytes": 232000, "mr.merge.passes": 41,
				"mr.combines": 0, "mr.reduce.disk.merges": 44,
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := cluster.New(cluster.Options{NumNodes: 3, HDFSBlockSize: 8 << 10, YarnMemMB: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			var ledger fileLedger
			ledger.watch(c)
			if err := c.FS().WriteFile("in/data", tc.input, 1); err != nil {
				t.Fatal(err)
			}
			res, err := NewEngine(c, tc.cfg).Run(tc.job)
			if err != nil {
				t.Fatal(err)
			}

			reg := c.Metrics()
			spills, passes := reg.Counter("mr.spills").Value(), reg.Counter("mr.merge.passes").Value()
			if spills < int64(3*res.MapTasks) || passes < int64(2*res.MapTasks) {
				t.Errorf("%d map tasks spilled %d times and merged in %d passes: the scenario is too small",
					res.MapTasks, spills, passes)
			}
			var got [3]int
			for i, kind := range []string{"/spill-", "/interm-", "/segment-"} {
				_, got[i] = ledger.digest(kind)
			}
			if got != tc.counts {
				t.Errorf("map side wrote %v spill, intermediate and segment files, want %v", got, tc.counts)
			}
			if files, _ := ledger.digest("map-"); files != tc.files {
				t.Errorf("map-side files hash = %s, want %s", files, tc.files)
			}
			if fetch, n := ledger.digest("/fetch-"); fetch != tc.fetch || n != tc.nfetch {
				t.Errorf("%d fetch runs, hash %s, want %d, %s", n, fetch, tc.nfetch, tc.fetch)
			}
			h := sha256.New()
			for _, f := range res.OutputFiles {
				data, err := c.FS().ReadFile(f, -1)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s %d\n", f, len(data))
				h.Write(data)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.output {
				t.Errorf("output hash = %s, want %s", got, tc.output)
			}
			for name, want := range tc.metrics {
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if left := mapFilesLeft(c); len(left) > 0 {
				t.Errorf("the job left %v", left)
			}
		})
	}
}
