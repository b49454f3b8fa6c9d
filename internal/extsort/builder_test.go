package extsort

import (
	"errors"
	"fmt"
	"testing"

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
