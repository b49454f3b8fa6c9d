package extsort

import (
	"fmt"
	"io"
	"testing"

	"github.com/hamr-go/hamr/internal/compress"
	"github.com/hamr-go/hamr/internal/storage"
)

// compressedSpillRecs builds repetitive word-shaped records — the byte
// shape spills actually have — so the LZ codec has something to find.
func compressedSpillRecs(n int) []testRec {
	words := []string{"hadoop", "shuffle", "dataflow", "spill", "merge", "combine"}
	recs := make([]testRec, n)
	for i := range recs {
		recs[i] = testRec{key: fmt.Sprintf("%s-%03d", words[i%len(words)], i%40), seq: int64(i)}
	}
	return recs
}

// TestCompressedRunRoundTrip: a run written with an enabled Config reads
// back record-identical through OpenRunC, and occupies fewer disk bytes
// than its uncompressed twin.
func TestCompressedRunRoundTrip(t *testing.T) {
	disk := storage.NewMemDisk(0)
	recs := compressedSpillRecs(4000)
	SortStable(recs, testCmp)

	cc := compress.Config{Codec: compress.LZ{}}
	if err := writeRun(disk, "plain", testFormat{}, recs, compress.Config{}); err != nil {
		t.Fatal(err)
	}
	if err := writeRun(disk, "lz", testFormat{}, recs, cc); err != nil {
		t.Fatal(err)
	}
	plainSize, _ := disk.Size("plain")
	lzSize, _ := disk.Size("lz")
	if lzSize >= plainSize {
		t.Fatalf("compressed run not smaller: %d vs %d", lzSize, plainSize)
	}
	t.Logf("run size %d -> %d (%.2fx)", plainSize, lzSize, float64(plainSize)/float64(lzSize))

	rr, err := OpenRunC(disk, "lz", testFormat{}, cc)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	for i := range recs {
		got, err := rr.Next()
		if err != nil {
			t.Fatalf("rec %d: %v", i, err)
		}
		if got != recs[i] {
			t.Fatalf("rec %d: got %+v want %+v", i, got, recs[i])
		}
	}
	if _, err := rr.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestCompressedBuilderAndMerge: spills from a builder with Compress set
// merge through MergeToFactor into the same sequence an uncompressed
// pipeline produces, and OnSpill still reports pre-compression bytes.
func TestCompressedBuilderAndMerge(t *testing.T) {
	run := func(cc compress.Config) (recs []testRec, spillBytes int64, diskBytes int64) {
		disk := storage.NewMemDisk(0)
		b := NewRunBuilder(BuilderConfig[testRec]{
			Cmp:       testCmp,
			Format:    testFormat{},
			Disk:      disk,
			RunName:   func(i int) string { return fmt.Sprintf("run-%d", i) },
			Threshold: 4 << 10,
			OnSpill:   func(_ int, bytes int64) { spillBytes += bytes },
			Compress:  cc,
		})
		for _, r := range compressedSpillRecs(6000) {
			if err := b.Add(r, int64(len(r.key)+8)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Spill(); err != nil {
			t.Fatal(err)
		}
		runs, err := MergeToFactor(disk, plainRuns(b.Runs()), 3,
			func(pass int) string { return fmt.Sprintf("interm-%d", pass) }, nil, cc)
		if err != nil {
			t.Fatal(err)
		}
		sources := make([]Source[testRec], 0, len(runs))
		for _, run := range runs {
			rr, err := OpenRunC(disk, run.Name, testFormat{}, cc)
			if err != nil {
				t.Fatal(err)
			}
			defer rr.Close()
			sources = append(sources, rr)
		}
		if err := Merge(sources, testCmp, func(r testRec, _ int) error {
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return recs, spillBytes, disk.Used()
	}

	plain, plainSpill, plainDisk := run(compress.Config{})
	lz, lzSpill, lzDisk := run(compress.Config{Codec: compress.LZ{}})
	if len(plain) != len(lz) {
		t.Fatalf("record counts differ: %d vs %d", len(plain), len(lz))
	}
	for i := range plain {
		if plain[i] != lz[i] {
			t.Fatalf("rec %d differs: %+v vs %+v", i, plain[i], lz[i])
		}
	}
	if plainSpill != lzSpill {
		t.Fatalf("OnSpill bytes changed under compression: %d vs %d", plainSpill, lzSpill)
	}
	if lzDisk >= plainDisk {
		t.Fatalf("compressed pipeline used more disk: %d vs %d", lzDisk, plainDisk)
	}
	t.Logf("disk used %d -> %d (%.2fx), spill-accounted bytes %d (both)",
		plainDisk, lzDisk, float64(plainDisk)/float64(lzDisk), plainSpill)
}
