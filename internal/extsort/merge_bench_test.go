package extsort

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/hamr-go/hamr/internal/storage"
)

func benchData(k, perRun int) [][]testRec {
	raw := make([]byte, k*perRun)
	state := uint32(2463534242)
	for i := range raw {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		raw[i] = byte(state)
	}
	return buildRuns(raw, k, 101)
}

var benchSink int64

func benchKs(b *testing.B, run func(b *testing.B, runs [][]testRec)) {
	for _, k := range []int{2, 4, 8, 16, 32} {
		runs := benchData(k, 4096)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(b, runs)
			}
		})
	}
}

func BenchmarkMergeLoserTree(b *testing.B) {
	benchKs(b, func(b *testing.B, runs [][]testRec) {
		sources := make([]Source[testRec], len(runs))
		for i := range runs {
			sources[i] = SliceSource(runs[i])
		}
		if err := Merge(sources, testCmp, func(r testRec, _ int) error {
			benchSink += r.seq
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	})
}

// mergeToFactorFixture writes 16 sorted runs of perRun records each to
// disk and returns the runs and the record count.
func mergeToFactorFixture(tb testing.TB, disk storage.Disk, perRun int) ([]Run, int) {
	tb.Helper()
	runs := benchData(16, perRun)
	names := make([]string, len(runs))
	for i, run := range runs {
		names[i] = fmt.Sprintf("run-%02d", i)
		if err := writeSorted(disk, names[i], testFormat{}, run); err != nil {
			tb.Fatal(err)
		}
	}
	return plainRuns(names), 16 * perRun
}

// mergeToFactor4 merges the fixture's 16 runs down to four, removes what
// is left, and returns the number of passes it took.
func mergeToFactor4(tb testing.TB, disk storage.Disk, runs []Run) int {
	tb.Helper()
	passes := 0
	left, err := MergeToFactor(disk, runs, 4,
		func(pass int) string { return fmt.Sprintf("interm-%02d", pass) }, func() { passes++ })
	if err != nil {
		tb.Fatal(err)
	}
	if len(left) > 4 {
		tb.Fatalf("%d runs left", len(left))
	}
	for _, run := range left {
		if err := disk.Remove(run.Name); err != nil {
			tb.Fatal(err)
		}
	}
	return passes
}

// BenchmarkMergeToFactor times the multi-pass byte merge: 16 runs of 4096
// records to factor 4 on a MemDisk, fixture building excluded.
func BenchmarkMergeToFactor(b *testing.B) {
	disk := storage.NewMemDisk(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runs, _ := mergeToFactorFixture(b, disk, 4096)
		b.StartTimer()
		mergeToFactor4(b, disk, runs)
	}
}

// TestMergeAllocsPerRecord is the allocation guard on the merge path: a
// pass of MergeToFactor moves records as bytes through recycled pages and
// buffers, so what it allocates does not scale with the records it moves.
// The typed pass it replaced allocated 4 objects (~150 B) per record per
// pass. The second merge on the disk is the one measured, the disk's pages
// and the package's buffers already warm.
func TestMergeAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted in MemStats")
	}
	const (
		maxAllocsPerRecordPass = 0.1
		maxBytesPerRecordPass  = 2
	)
	disk := storage.NewMemDisk(0)
	run := func() (allocs, bytes float64) {
		runs, records := mergeToFactorFixture(t, disk, 4096)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		passes := mergeToFactor4(t, disk, runs)
		runtime.ReadMemStats(&m1)
		// Every pass at factor 4 moves a quarter of the records or more;
		// charging each pass the full count keeps the bound simple.
		n := float64(records * passes)
		return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
	}
	run()
	allocs, bytes := run()
	t.Logf("second merge, per record per pass: %.4f allocs, %.3f B (bounds %.1f, %d B)",
		allocs, bytes, maxAllocsPerRecordPass, maxBytesPerRecordPass)
	if allocs > maxAllocsPerRecordPass || bytes > maxBytesPerRecordPass {
		t.Errorf("second merge allocated %.4f objects, %.3f B per record per pass", allocs, bytes)
	}
}
