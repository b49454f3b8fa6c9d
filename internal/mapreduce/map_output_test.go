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
// merged outputs, the reduce side's fetch runs — most of which are gone
// again before the job returns, and what is read of every file on those
// disks, HDFS blocks included.
type fileLedger struct {
	mu    sync.Mutex
	files map[string]string      // name without the job number → size and sha256
	reads map[string]*ledgerRead // full name → what was read of it
}

// ledgerRead is what was read of one file: how often it was opened and how
// many bytes were delivered.
type ledgerRead struct {
	node         int
	opens, bytes int64
}

var taskFile = regexp.MustCompile(`^job\d+/(map-\d+/((spill|interm)-\d+|file\.out)|reduce-\d+/fetch-\d+)$`)

// watch puts the ledger between the cluster and each of its local disks.
// Cluster.Disks returns the slice the cluster itself indexes and HDFS
// shares, so every task's Disk(node) and every block read sees the wrapper.
func (l *fileLedger) watch(c *cluster.Cluster) {
	l.files = map[string]string{}
	l.reads = map[string]*ledgerRead{}
	disks := c.Disks()
	for i, d := range disks {
		disks[i] = ledgerDisk{Disk: d, l: l, node: i}
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
	l    *fileLedger
	node int
}

func (d ledgerDisk) Open(name string) (io.ReadSeekCloser, error) {
	f, err := d.Disk.Open(name)
	if err != nil {
		return nil, err
	}
	d.l.mu.Lock()
	defer d.l.mu.Unlock()
	rd := d.l.reads[name]
	if rd == nil {
		rd = &ledgerRead{node: d.node}
		d.l.reads[name] = rd
	}
	rd.opens++
	return &ledgerReader{ReadSeekCloser: f, l: d.l, rd: rd}, nil
}

type ledgerReader struct {
	io.ReadSeekCloser
	l  *fileLedger
	rd *ledgerRead
}

func (r *ledgerReader) Read(p []byte) (int, error) {
	n, err := r.ReadSeekCloser.Read(p)
	r.l.mu.Lock()
	r.rd.bytes += int64(n)
	r.l.mu.Unlock()
	return n, err
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
// every spill, intermediate and output file the map side writes, the job's
// output, and the engine's counters.
//
// The job output hash and the six counters were recorded at the commit
// before the map-side sort buffer held bytes (PR 15), and the hash of the
// reduce side's fetch runs at the commit before the reduce task merged bytes
// (PR 16); none has moved since. The map-side pins moved once, at PR 20,
// when a map task's runs became sectioned and its output one file:
//
//   - spills: the same files in the same number, without the 4-byte
//     partition prefix on every key. The pin is the digest of the parent's
//     spill files, recorded there with that prefix cut off each record.
//   - files: every map-side file. It moved with the spills, with the
//     intermediates (no prefix either, and a pass now merges the lightest
//     adjacent window, not the front of the list: as many files, other
//     contents) and with the outputs: segment-NNNNN, one file a partition,
//     is gone and file.out, one a map task, holds the same records.
//
// Every file pin and the two byte-derived counters moved again at PR 23,
// when the value codec's lengths and ints became varints: each record in
// each file is shorter (a word's count 9 bytes -> 2, a row's payload 25 ->
// 18) and nothing else about a file changed. What that change could not
// move is pinned beside them and did not: the file counts, mr.spills,
// mr.spill.bytes (accounted before encoding), mr.merge.passes, mr.combines,
// the number of fetch runs and the output hash.
//
// The fetch pin, its count and mr.reduce.disk.merges moved when the reduce
// side began to merge in memory, as Hadoop's InMemoryMerger does: a fetch
// run is now what memory held when heap/2 filled, merged into one file.
// Every map-side pin, the output hash and the other counters did not move.
func TestMapOutputFilesMatchPinnedBaseline(t *testing.T) {
	sumReducer := func() Reducer { return wcReducer{} }
	for _, tc := range []struct {
		name    string
		input   []byte
		cfg     Config
		job     Job
		files   string // ledger digest of the map side
		spills  string // of its spill files
		counts  [3]int // spill, intermediate, output files
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
			files:  "de0f2fa85a92f6e3573a3b7fb0e172d27b5348e479c7e22a181b24b9a43d94bb",
			spills: "a589a1148aaa8024c5b0f8750aac8bf451a39ce97669a6bd1bf7349d85325b5e",
			counts: [3]int{74, 30, 5},
			fetch:  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", // of nothing
			output: "2f01e8b1c42a2802c59d6df3df2868f4f4e9dbd3a2f3f1c564a80b06b8c73cda",
			metrics: map[string]int64{
				"mr.spills": 74, "mr.spill.bytes": 150000, "mr.merge.passes": 30,
				// 16847 shuffled before PR 23: 7 bytes off each combined pair.
				"mr.combines": 74, "mr.shuffle.bytes": 9920, "mr.reduce.disk.merges": 0,
			},
		},
		{
			// No combiner, string values, four partitions: every record
			// passes through collect, a spill, merge passes and the final
			// merge into the output's four sections untouched. With four
			// reduce tasks racing for containers the remote share of the
			// shuffle follows the schedule, so mr.shuffle.bytes is left out.
			name:   "terasort",
			input:  []byte(teraRows(4000)),
			cfg:    Config{SortBufferBytes: 2 << 10, MergeFactor: 3, ReduceHeapBytes: 16 << 10},
			job:    identitySortJob(4),
			files:  "9d55cf81ff8d5b10e93847c7d68807177c967efa224795564188181bbec3b319",
			spills: "d14c7acde4e2446697b18b0f92eef8f74c82c060fc029da26f8b119272f58cb6",
			// 14 outputs hold what 56 segment files did.
			counts: [3]int{123, 41, 14},
			// Every reducer crosses its in-memory budget part of the way
			// through its fetch and merges what memory holds into one disk
			// run each time heap/2 fills: the fetch runs are those 14. Before
			// the in-memory merge they were 56, one a section, 14 of them
			// copied from memory at the crossing, with 42 disk merges (12
			// and 44 before the varint codec: smaller sections, so two more
			// of them fit under heap/2).
			fetch:  "6677fbd0b2c428e4cbf643e0707e59dcd3883ec46bedcf2f434ea88d6e88ea24",
			nfetch: 14,
			output: "64b3f8c737b492a0d206a7932891084b62184a61634ca5baab4ef46d93595c15",
			metrics: map[string]int64{
				"mr.spills": 123, "mr.spill.bytes": 232000, "mr.merge.passes": 41,
				"mr.combines": 0, "mr.reduce.disk.merges": 14,
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
			for i, kind := range []string{"/spill-", "/interm-", "/file.out"} {
				_, got[i] = ledger.digest(kind)
			}
			if got != tc.counts || got[2] != res.MapTasks {
				t.Errorf("%d map tasks wrote %v spill, intermediate and output files, want %v", res.MapTasks, got, tc.counts)
			}
			if _, n := ledger.digest("segment"); n != 0 {
				t.Errorf("the map side wrote %d segment files", n)
			}
			if spills, _ := ledger.digest("/spill-"); spills != tc.spills {
				t.Errorf("spill files hash = %s, want %s", spills, tc.spills)
			}
			if files, _ := ledger.digest("map-"); files != tc.files {
				t.Errorf("map-side files hash = %s, want %s", files, tc.files)
			}
			if fetch, n := ledger.digest("/fetch-"); fetch != tc.fetch || n != tc.nfetch {
				t.Errorf("%d fetch runs, hash %s, want %d, %s", n, fetch, tc.nfetch, tc.fetch)
			}
			if got := outputHash(t, c); got != tc.output {
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

// TestLoneSpillIsTheMapOutput: a map task that spills once — at the end,
// its sort buffer never full — has written its output when it has spilled.
// The job writes one map-side file a map task and no other; nothing reads a
// byte of one but the reducers, each its own section, once; and with the
// reducers' fetch runs in memory, what the disks deliver is the HDFS blocks
// under the splits and those sections.
func TestLoneSpillIsTheMapOutput(t *testing.T) {
	c, err := cluster.New(cluster.Options{NumNodes: 3, HDFSBlockSize: 8 << 10, DiskModel: &storage.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var ledger fileLedger
	ledger.watch(c)
	input := datagen.Text(datagen.TextConfig{Seed: 5, Vocabulary: 300, Lines: 600})
	if err := c.FS().WriteFile("in/data", input, -1); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob(false)
	res, err := NewEngine(c, Config{}).Run(job)
	if err != nil {
		t.Fatal(err)
	}
	reg := c.Metrics()
	if spills := reg.Counter("mr.spills").Value(); res.MapTasks < 3 || spills != int64(res.MapTasks) {
		t.Fatalf("%d map tasks spilled %d times: the scenario needs several, one spill each", res.MapTasks, spills)
	}

	sizes := map[string]int64{} // map-side files by name
	loneSpill := regexp.MustCompile(`^map-\d+/spill-0000$`)
	for name, entry := range ledger.files {
		if !loneSpill.MatchString(name) {
			t.Errorf("the job wrote %s: want one spill a map task and nothing else", name)
		}
		var size int64
		if _, err := fmt.Sscan(entry, &size); err != nil {
			t.Fatalf("%s: ledger entry %q", name, entry)
		}
		sizes[name] = size
	}
	if len(sizes) != res.MapTasks {
		t.Errorf("%d map-side files for %d map tasks", len(sizes), res.MapTasks)
	}

	var outputs, total int64
	for name, rd := range ledger.reads {
		total += rd.bytes
		if strings.HasPrefix(name, "hdfs/") {
			continue
		}
		m := taskFile.FindStringSubmatch(name)
		if m == nil {
			t.Errorf("node %d: %s was read, neither a block nor a map output", rd.node, name)
			continue
		}
		// One open a reducer with a section in it, and between them every
		// byte once.
		if rd.opens < 1 || rd.opens > int64(job.NumReduces) || rd.bytes != sizes[m[1]] {
			t.Errorf("node %d: %s of %d bytes: %d opens read %d", rd.node, m[1], sizes[m[1]], rd.opens, rd.bytes)
		}
		outputs += rd.bytes
	}
	if outputs != res.ShuffleBytes {
		t.Errorf("reducers read %d bytes of map output and fetched %d", outputs, res.ShuffleBytes)
	}
	if got := reg.Counter("disk.read.bytes").Value(); got != total {
		t.Errorf("disk.read.bytes = %d, the ledger saw %d", got, total)
	}
	if left := mapFilesLeft(c); len(left) > 0 {
		t.Errorf("the job left %v", left)
	}
}
