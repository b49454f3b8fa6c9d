package extsort

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/storage"
)

// denyAll is a Budget with no memory at all: every reservation is
// denied, so the builder spills before every add once it holds data.
type denyAll struct{ forced, released int64 }

func (d *denyAll) Reserve(int64) bool   { return false }
func (d *denyAll) ForceReserve(n int64) { d.forced += n }
func (d *denyAll) Release(n int64)      { d.released += n }

func testBuilder(disk storage.Disk, budget Budget, threshold int64) (*RunBuilder[testRec], *int) {
	spills := new(int)
	return NewRunBuilder(BuilderConfig[testRec]{
		Cmp:       testCmp,
		Format:    testFormat{},
		Disk:      disk,
		RunName:   func(i int) string { return fmt.Sprintf("spill/run-%04d", i) },
		Budget:    budget,
		Threshold: threshold,
		OnSpill:   func(int, int64) { *spills++ },
	}), spills
}

func TestBuilderZeroBudgetSpillsEveryAdd(t *testing.T) {
	disk := storage.NewMemDisk(0)
	budget := &denyAll{}
	b, spills := testBuilder(disk, budget, 0)
	const n = 20
	for i := 0; i < n; i++ {
		if err := b.Add(testRec{key: fmt.Sprintf("k%02d", i%5), seq: int64(i)}, 10); err != nil {
			t.Fatal(err)
		}
	}
	// Each add past the first finds a non-empty buffer and spills it:
	// n-1 single-record runs, one record still buffered.
	if *spills != n-1 {
		t.Fatalf("spills = %d, want %d", *spills, n-1)
	}
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Runs()); got != n {
		t.Fatalf("runs = %d, want %d", got, n)
	}
	if budget.forced != n*10 {
		t.Fatalf("forced reservations = %d, want %d", budget.forced, n*10)
	}
	if budget.released != n*10 {
		t.Fatalf("released = %d, want %d (every spilled buffer returned)", budget.released, n*10)
	}
	// All records survive the round trip, in order.
	var sources []Source[testRec]
	for _, name := range b.Runs() {
		rr, err := OpenRun(disk, name, testFormat{})
		if err != nil {
			t.Fatal(err)
		}
		defer rr.Close()
		sources = append(sources, rr)
	}
	count := 0
	var prev testRec
	err := Merge(sources, testCmp, func(r testRec, _ int) error {
		if count > 0 && testCmp(prev, r) > 0 {
			t.Fatalf("out of order: %+v before %+v", prev, r)
		}
		prev = r
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("merged %d records, want %d", count, n)
	}
}

func TestBuilderNoDiskError(t *testing.T) {
	b, _ := testBuilder(nil, &denyAll{}, 0)
	if err := b.Add(testRec{key: "a"}, 1); err != nil {
		t.Fatalf("first add (empty buffer, nothing to spill) errored: %v", err)
	}
	err := b.Add(testRec{key: "b"}, 1)
	if !errors.Is(err, ErrNoDisk) {
		t.Fatalf("add with exhausted budget and no disk = %v, want ErrNoDisk", err)
	}
}

func TestBuilderThresholdIncludesCrossingRecord(t *testing.T) {
	disk := storage.NewMemDisk(0)
	b, spills := testBuilder(disk, nil, 100)
	for i := 0; i < 9; i++ {
		if err := b.Add(testRec{seq: int64(i), key: "k"}, 10); err != nil {
			t.Fatal(err)
		}
	}
	if *spills != 0 {
		t.Fatalf("spilled below threshold: %d", *spills)
	}
	if err := b.Add(testRec{seq: 9, key: "k"}, 10); err != nil {
		t.Fatal(err)
	}
	if *spills != 1 {
		t.Fatalf("spills = %d, want 1 (10th add crosses 100 bytes)", *spills)
	}
	if b.BufferedBytes() != 0 {
		t.Fatalf("buffer not reset: %d bytes", b.BufferedBytes())
	}
	rr, err := OpenRun(disk, b.Runs()[0], testFormat{})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	n := 0
	for {
		if _, err := rr.Next(); err != nil {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("run holds %d records, want 10 (crossing record included)", n)
	}
}

func TestBuilderDrainResetsButKeepsRunNumbering(t *testing.T) {
	disk := storage.NewMemDisk(0)
	b, _ := testBuilder(disk, nil, 15)
	for i := 0; i < 4; i++ { // 40 bytes: spills at 20 and 40
		if err := b.Add(testRec{key: fmt.Sprintf("k%d", i)}, 10); err != nil {
			t.Fatal(err)
		}
	}
	buf, bytes, runs := b.Drain()
	if len(buf) != 0 || bytes != 0 || len(runs) != 2 {
		t.Fatalf("Drain = (%d recs, %d bytes, %d runs)", len(buf), bytes, len(runs))
	}
	if b.Count() != 4 {
		t.Fatalf("Count reset by Drain: %d", b.Count())
	}
	// New spills continue the numbering instead of overwriting old runs.
	for i := 0; i < 2; i++ {
		if err := b.Add(testRec{key: "x"}, 10); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Runs(); len(got) != 1 || got[0] != "spill/run-0002" {
		t.Fatalf("post-drain runs = %v, want [spill/run-0002]", got)
	}
}

func TestMergeToFactorPassesAndCleanup(t *testing.T) {
	disk := storage.NewMemDisk(0)
	base := disk.Used()
	b, _ := testBuilder(disk, nil, 30)
	total := 0
	for i := 0; i < 70; i++ {
		if err := b.Add(testRec{key: fmt.Sprintf("k%02d", (i*7)%19), seq: int64(i)}, 10); err != nil {
			t.Fatal(err)
		}
		total++
	}
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	runs := b.Runs()
	if len(runs) != 24 { // 70 adds / 3-record spills, plus the final 1-record spill
		t.Fatalf("%d initial runs", len(runs))
	}
	passes := 0
	merged, err := MergeToFactor(disk, plainRuns(runs), 4,
		func(pass int) string { return fmt.Sprintf("interm-%04d", pass) },
		func() { passes++ })
	if err != nil {
		t.Fatal(err)
	}
	// 24 runs at factor 4: the first pass takes (24-1) mod 3 + 1 = 3 runs
	// so that every later one takes four and the last leaves four:
	// 24→22→19→16→13→10→7→4, seven passes.
	if len(merged) != 4 {
		t.Fatalf("%d runs remain, factor 4", len(merged))
	}
	if passes != 7 {
		t.Fatalf("passes = %d, want 7", passes)
	}
	// Consumed inputs are removed: only the remaining runs occupy disk.
	var remaining int64
	for _, run := range merged {
		sz, err := disk.Size(run.Name)
		if err != nil {
			t.Fatalf("remaining run %s: %v", run.Name, err)
		}
		remaining += sz
	}
	if used := disk.Used(); used != base+remaining {
		t.Fatalf("disk.Used = %d, want %d (leaked intermediate runs)", used, base+remaining)
	}
	// All records survive, in order.
	var sources []Source[testRec]
	for _, run := range merged {
		rr, err := OpenRun(disk, run.Name, testFormat{})
		if err != nil {
			t.Fatal(err)
		}
		defer rr.Close()
		sources = append(sources, rr)
	}
	count := 0
	var prev testRec
	err = Merge(sources, testCmp, func(r testRec, _ int) error {
		if count > 0 && testCmp(prev, r) > 0 {
			t.Fatalf("out of order after multi-pass merge")
		}
		prev = r
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != total {
		t.Fatalf("merged %d records, want %d", count, total)
	}
	// After the caller removes the final runs, disk returns to baseline.
	for _, run := range merged {
		if err := disk.Remove(run.Name); err != nil {
			t.Fatal(err)
		}
	}
	if used := disk.Used(); used != base {
		t.Fatalf("disk.Used = %d after cleanup, want %d", used, base)
	}
}

func TestMergeToFactorNoOpWithinFactor(t *testing.T) {
	disk := storage.NewMemDisk(0)
	b, _ := testBuilder(disk, nil, 20)
	for i := 0; i < 6; i++ {
		if err := b.Add(testRec{key: fmt.Sprintf("k%d", i)}, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	runs := plainRuns(b.Runs())
	got, err := MergeToFactor(disk, runs, 10,
		func(int) string { return "interm" }, func() { t.Fatal("pass run under factor") })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(runs) {
		t.Fatalf("run list changed: %v", got)
	}
}

func TestSpillEmptyBufferIsNoOp(t *testing.T) {
	b, spills := testBuilder(storage.NewMemDisk(0), nil, 10)
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	if *spills != 0 || len(b.Runs()) != 0 {
		t.Fatal("empty spill produced a run")
	}
}

// capBudget grants reservations up to cap bytes held at once (the first
// always), so a builder under it spills wherever the bytes run out,
// whatever chunk the record lands in.
type capBudget struct{ cap, used int64 }

func (b *capBudget) Reserve(n int64) bool {
	if b.used+n > b.cap && b.used > 0 {
		return false
	}
	b.used += n
	return true
}
func (b *capBudget) ForceReserve(n int64) { b.used += n }
func (b *capBudget) Release(n int64)      { b.used -= n }

// pinInput is the fixed input the pinned run digests below were taken
// from: 3000 records over 97 keys, seq the arrival index.
func pinInput() []testRec {
	rng := rand.New(rand.NewSource(15))
	recs := make([]testRec, 3000)
	for i := range recs {
		recs[i] = testRec{key: fmt.Sprintf("k%03d", rng.Intn(97)), seq: int64(i)}
	}
	return recs
}

// pinnedRuns are the sha256 digests of the runs a builder spilled from
// pinInput under a 5000-byte budget before it buffered in chunks, when a
// spill was one stable sort of one contiguous buffer.
var pinnedRuns = []string{
	"861a2295c8e4f959b7f76f993824b13ed1a35e62e1b3f0980c305c2ba6065adf",
	"2fc718d1c2e56246a820890dc32eba71d64e13c9fe3618a06f378831be263f19",
	"23bedade3d6e4d837e624e6845c0e1fe392bb9499cb9122a0f81fe6adfe49ca8",
	"19ea41f8cad20f3c4510cdb842bdfdc538ab51a685dcb2c1fee05f96659dfa2f",
	"741ce011382375a2a720c673aa4911dbd870f8823f1b9e8499fbc8f5fe9c7153",
	"945ae76074886fd43b8242e922caffad2c66792acbe9145f1d506c13ad12e681",
	"a138b7f510078b3b988ba566ed9e758619e74cedf71598e41cdda8d4c41c6ce7",
	"b2bb386959fb8c938ccc477e1d652d13c45f3a093d87b376277af2146e9b5ef1",
}

func fileDigest(t *testing.T, disk storage.Disk, name string) string {
	t.Helper()
	f, err := disk.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// TestSpillRunsMatchContiguousSort: whatever the chunk size — one record,
// a size that straddles every spill, one chunk per spill — each run file
// is byte for byte its pinned digest and the run one stable
// sort of the same records writes.
func TestSpillRunsMatchContiguousSort(t *testing.T) {
	recs := pinInput()
	for _, size := range []int{1, 7, 64, DefaultChunkLen} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			disk := storage.NewMemDisk(0)
			chunks := par.NewSlices[testRec](size)
			var spilled [][]testRec // each spill's records, in arrival order
			from := 0
			b := NewRunBuilder(BuilderConfig[testRec]{
				Cmp: testCmp, Format: testFormat{}, Disk: disk,
				RunName: func(i int) string { return fmt.Sprintf("pin/run-%04d", i) },
				Chunks:  chunks,
				Budget:  &capBudget{cap: 5000},
				OnSpill: func(n int, _ int64) {
					spilled = append(spilled, slices.Clone(recs[from:from+n]))
					from += n
				},
			})
			for _, r := range recs {
				if err := b.Add(r, int64(len(r.key)+8)); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Spill(); err != nil {
				t.Fatal(err)
			}
			if len(b.Runs()) != len(pinnedRuns) {
				t.Fatalf("%d runs, pinned %d", len(b.Runs()), len(pinnedRuns))
			}
			for i, name := range b.Runs() {
				if got := fileDigest(t, disk, name); got != pinnedRuns[i] {
					t.Errorf("run %d: sha256 %s, pinned %s", i, got, pinnedRuns[i])
				}
				SortStable(spilled[i], testCmp)
				ref := fmt.Sprintf("ref-%04d", i)
				if err := writeSorted(disk, ref, testFormat{}, spilled[i]); err != nil {
					t.Fatal(err)
				}
				if got, want := fileDigest(t, disk, name), fileDigest(t, disk, ref); got != want {
					t.Errorf("run %d differs from one stable sort of its records", i)
				}
			}
			if err := chunks.Stats().Home(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBuilderChunksKeepArrivalOrder: equal keys spread over many chunks,
// spills that cut chunks in the middle and several runs; merging the runs
// and then the drained chunks returns each key's records in arrival order.
func TestBuilderChunksKeepArrivalOrder(t *testing.T) {
	disk := storage.NewMemDisk(0)
	chunks := par.NewSlices[testRec](5)
	budget := &capBudget{cap: 130} // 13 ten-byte records a spill
	b := NewRunBuilder(BuilderConfig[testRec]{
		Cmp: testCmp, Format: testFormat{}, Disk: disk,
		RunName: func(i int) string { return fmt.Sprintf("order/run-%04d", i) },
		Chunks:  chunks,
		Budget:  budget,
	})
	const n = 60 // four spills of 13, eight records left in two chunks
	for i := 0; i < n; i++ {
		if err := b.Add(testRec{key: fmt.Sprintf("k%d", i%3), seq: int64(i)}, 10); err != nil {
			t.Fatal(err)
		}
	}
	bufs, bytes, runs := b.Drain()
	if len(runs) != 4 || len(bufs) != 2 || bytes != 80 {
		t.Fatalf("Drain = (%d chunks, %d bytes, %d runs), want (2, 80, 4)", len(bufs), bytes, len(runs))
	}
	if s := chunks.Stats(); s.Live != 2 {
		t.Fatalf("chunks live after Drain = %d, want 2", s.Live)
	}
	var sources []Source[testRec]
	for _, name := range runs {
		rr, err := OpenRun(disk, name, testFormat{})
		if err != nil {
			t.Fatal(err)
		}
		defer rr.Close()
		sources = append(sources, rr)
	}
	for _, c := range bufs {
		sources = append(sources, SliceSource(c))
	}
	last := map[string]int64{}
	count := 0
	var prev string
	err := Merge(sources, testCmp, func(r testRec, _ int) error {
		if r.key < prev {
			t.Fatalf("key %q after %q", r.key, prev)
		}
		if s, ok := last[r.key]; ok && r.seq <= s {
			t.Fatalf("key %q: seq %d after %d, arrival order lost", r.key, r.seq, s)
		}
		prev, last[r.key] = r.key, r.seq
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("merged %d records, want %d", count, n)
	}
	for _, c := range bufs {
		chunks.Put(c)
	}
	if err := chunks.Stats().Home(); err != nil {
		t.Error(err)
	}
}

// TestChunkListReuses: a drained list hands its chunks out again, cleared,
// before it makes another.
func TestChunkListReuses(t *testing.T) {
	l := par.NewSlices[*int](4)
	a, b := l.Get(), l.Get()
	x := 1
	a = append(a, &x)
	l.Put(a)
	l.Put(b)
	for i := 0; i < 2; i++ {
		c := l.Get()
		if len(c) != 0 || cap(c) != 4 || c[:1][0] != nil {
			t.Fatalf("reused chunk len %d cap %d, first slot %v", len(c), cap(c), c[:1][0])
		}
		defer l.Put(c)
	}
	if s := l.Stats(); s.Made != 2 || s.Peak != 2 || s.Live != 2 {
		t.Fatalf("stats %+v, want Made 2, Peak 2, Live 2", s)
	}
}
