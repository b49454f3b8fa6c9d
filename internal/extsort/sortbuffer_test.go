package extsort

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/storage"
)

// readRun reads a run back as its reader gives it: under run keys.
func readRun(t testing.TB, disk storage.Disk, run Run) []storage.Record {
	t.Helper()
	var recs []storage.Record
	err := MergeRuns(disk, []Run{run}, func(key, value []byte) error {
		recs = append(recs, storage.Record{Key: slices.Clone(key), Value: slices.Clone(value)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func sortBufferOn(disk storage.Disk, threshold int64, cfg SortBufferConfig) *SortBuffer {
	cfg.Disk = disk
	cfg.RunName = func(i int) string { return fmt.Sprintf("sb/run-%04d", i) }
	cfg.Threshold = threshold
	return NewSortBuffer(cfg)
}

func TestSortBufferThresholdIncludesCrossingRecord(t *testing.T) {
	disk := storage.NewMemDisk(0)
	type spill struct {
		records int
		bytes   int64
	}
	var spills []spill
	b := sortBufferOn(disk, 25, SortBufferConfig{
		OnSpill: func(records int, bytes int64) { spills = append(spills, spill{records, bytes}) },
	})
	// Ten accounted bytes a record: the third brings the buffer to 30 and
	// goes out with the first two.
	for i, k := range []string{"c", "a", "b", "e", "d"} {
		if err := b.Add([]byte(k), []byte{byte(i)}, 10); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.Runs()) != 1 {
		t.Fatalf("%d runs after five adds, want 1", len(b.Runs()))
	}
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	if err := b.Spill(); err != nil { // empty: no run, no hook
		t.Fatal(err)
	}
	if want := []spill{{3, 30}, {2, 20}}; !slices.Equal(spills, want) {
		t.Fatalf("OnSpill saw %v, want %v", spills, want)
	}
	var got []string
	for _, run := range b.Runs() {
		for _, r := range readRun(t, disk, run) {
			got = append(got, fmt.Sprintf("%s=%d", r.Key, r.Value[0]))
		}
	}
	if want := "a=1 b=2 c=0 d=4 e=3"; strings.Join(got, " ") != want {
		t.Fatalf("runs hold %v, want %s", got, want)
	}
}

// What the typed builder's Transform test held: a combiner collapses each
// key group of the sorted buffer, the run holds its output, and OnSpill
// still accounts for the records that went in. Here also: groups arrive
// in key order with their values in arrival order, although the values
// slice is the same storage every time.
func TestSortBufferCombine(t *testing.T) {
	disk := storage.NewMemDisk(0)
	var preCount int
	var preBytes int64
	var seen []string
	b := sortBufferOn(disk, 0, SortBufferConfig{
		Combine: func(key []byte, values [][]byte, emit func(key, value []byte) error) error {
			sum := 0
			var vs []string
			for _, v := range values {
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return err
				}
				sum += n
				vs = append(vs, string(v))
			}
			seen = append(seen, fmt.Sprintf("%s:%s", key, strings.Join(vs, ",")))
			return emit(key, []byte(strconv.Itoa(sum)))
		},
		OnSpill: func(records int, bytes int64) { preCount, preBytes = records, bytes },
	})
	for i := 0; i < 7; i++ {
		key := fmt.Sprintf("k%d", i%2)
		if i == 6 {
			key = "solo"
		}
		if err := b.Add([]byte(key), []byte(strconv.Itoa(i)), 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	if preCount != 7 || preBytes != 49 {
		t.Fatalf("OnSpill saw (%d, %d), want the pre-combine (7, 49)", preCount, preBytes)
	}
	if want := "k0:0,2,4 k1:1,3,5 solo:6"; strings.Join(seen, " ") != want {
		t.Fatalf("combiner saw %v, want %s", seen, want)
	}
	var got []string
	for _, r := range readRun(t, disk, b.Runs()[0]) {
		got = append(got, fmt.Sprintf("%s=%s", r.Key, r.Value))
	}
	if want := "k0=6 k1=9 solo=6"; strings.Join(got, " ") != want {
		t.Fatalf("combined run = %v, want %s", got, want)
	}
}

func TestSortBufferCombineError(t *testing.T) {
	disk := storage.NewMemDisk(0)
	boom := fmt.Errorf("boom")
	spilled := false
	b := sortBufferOn(disk, 0, SortBufferConfig{
		Combine: func([]byte, [][]byte, func(key, value []byte) error) error { return boom },
		OnSpill: func(int, int64) { spilled = true },
	})
	if err := b.Add([]byte("k"), []byte("v"), 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Spill(); err != boom {
		t.Fatalf("Spill = %v, want the combiner's error", err)
	}
	if spilled || len(b.Runs()) != 0 {
		t.Fatalf("failed spill was reported: hook %v, runs %v", spilled, b.Runs())
	}
}

// A record larger than a storage block gets a block of its own, one
// larger than the threshold is a spill of its own, and both come back
// whole; the next fill reuses the standard blocks and not the outsized one.
func TestSortBufferLargeRecords(t *testing.T) {
	disk := storage.NewMemDisk(0)
	const threshold = 4 * sortBlockSize
	b := sortBufferOn(disk, threshold, SortBufferConfig{})
	big := bytes.Repeat([]byte{0xAB}, sortBlockSize+sortBlockSize/2) // > a block, < the threshold
	huge := bytes.Repeat([]byte{0xCD}, threshold+100)                // > the threshold
	add := func(key string, value []byte) {
		t.Helper()
		if err := b.Add([]byte(key), value, int64(len(key)+len(value))); err != nil {
			t.Fatal(err)
		}
	}
	add("m", []byte("small"))
	add("a", big)
	add("z", []byte("small too"))
	if len(b.Runs()) != 0 {
		t.Fatalf("spilled at %d accounted bytes, threshold %d", len(big)+20, threshold)
	}
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	add("h", huge)
	if len(b.Runs()) != 2 {
		t.Fatalf("%d runs, want the record over the threshold to have spilled alone", len(b.Runs()))
	}
	for _, blk := range b.blocks {
		if cap(blk) != sortBlockSize || len(blk) != 0 {
			t.Fatalf("after a spill the buffer keeps a block of cap %d, len %d", cap(blk), len(blk))
		}
	}
	add("b", []byte("after"))
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	want := [][]storage.Record{
		{{Key: []byte("a"), Value: big}, {Key: []byte("m"), Value: []byte("small")}, {Key: []byte("z"), Value: []byte("small too")}},
		{{Key: []byte("h"), Value: huge}},
		{{Key: []byte("b"), Value: []byte("after")}},
	}
	for i, run := range b.Runs() {
		got := readRun(t, disk, run)
		if len(got) != len(want[i]) {
			t.Fatalf("run %d holds %d records, want %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if !bytes.Equal(got[j].Key, want[i][j].Key) || !bytes.Equal(got[j].Value, want[i][j].Value) {
				t.Fatalf("run %d record %d: key %q, %d value bytes", i, j, got[j].Key, len(got[j].Value))
			}
		}
	}
}

// A buffer's storage follows what it is handed, not its threshold.
func TestSortBufferStorageFollowsInput(t *testing.T) {
	b := sortBufferOn(storage.NewMemDisk(0), 64<<20, SortBufferConfig{})
	for i := 0; i < 100; i++ {
		if err := b.Add([]byte("key"), []byte("value"), 24); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.blocks) != 1 || cap(b.index) > 256 {
		t.Fatalf("100 small records hold %d blocks and an index of %d", len(b.blocks), cap(b.index))
	}
}

// FuzzSortBuffer holds the byte buffer to slices.SortStableFunc on typed
// records in the MapReduce map task's (partition, key) order, seq being
// the arrival stamp: every run is the stable sort of what was added since the run
// before, and MergeRuns over all of them is the stable sort of everything
// — so values inside a key group come back in arrival order. The runs are
// sectioned by the partition, as the map task's are: no file holds a
// prefix, every record comes back under its own, and the index accounts
// for every record and every byte.
func FuzzSortBuffer(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), uint16(40))
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 1, 1, 2, 2, 0xff, 0}, uint8(1), uint16(0))
	f.Add(bytes.Repeat([]byte{7, 0xff, 7, 0, 200, 201}, 60), uint8(2), uint16(64))
	f.Add([]byte{}, uint8(0), uint16(10))
	f.Fuzz(func(t *testing.T, raw []byte, keyLen uint8, threshold uint16) {
		// Keys are windows of raw, 0..3 bytes long, so the empty key,
		// duplicates, shared prefixes and 0xff runs all turn up; partitions
		// go past 255 so that more than the prefix's last byte is in play.
		parts := []int{0, 1, 255, 256, 65536, 1<<32 - 1}
		maxLen := int(keyLen%4) + 1
		var recs []partRec
		for i, c := range raw {
			n := int(c) % maxLen
			recs = append(recs, partRec{
				part: parts[int(c>>3)%len(parts)],
				key:  string(raw[i:min(i+n, len(raw))]),
				seq:  int64(i),
			})
		}
		disk := storage.NewMemDisk(0)
		var perRun []int
		b := sortBufferOn(disk, int64(threshold), SortBufferConfig{
			Prefix:  4,
			OnSpill: func(records int, _ int64) { perRun = append(perRun, records) },
		})
		encode := func(r partRec) (key, value []byte) {
			key, value, _ = partFormat{}.AppendRecord(nil, nil, r)
			return key, value
		}
		for _, r := range recs {
			k, v := encode(r)
			if err := b.Add(k, v, int64(len(r.key)+8)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Spill(); err != nil {
			t.Fatal(err)
		}
		check := func(what string, got []storage.Record, want []partRec) {
			t.Helper()
			slices.SortStableFunc(want, partCmp)
			if len(got) != len(want) {
				t.Fatalf("%s holds %d records, want %d", what, len(got), len(want))
			}
			for i, w := range want {
				if k, v := encode(w); !bytes.Equal(got[i].Key, k) || !bytes.Equal(got[i].Value, v) {
					t.Fatalf("%s record %d = (%x, %s), want (%x, %s)", what, i, got[i].Key, got[i].Value, k, v)
				}
			}
		}
		start := 0
		for i, run := range b.Runs() {
			check(run.Name, readRun(t, disk, run), slices.Clone(recs[start:start+perRun[i]]))
			var records, span int64
			for _, sec := range run.Sections {
				if sec.Off != span {
					t.Fatalf("%s: partition %d's section begins at %d, the one before ends at %d", run.Name, sec.Partition, sec.Off, span)
				}
				records, span = records+sec.Records, span+sec.Len
			}
			if size, _ := disk.Size(run.Name); records != int64(perRun[i]) || span != size {
				t.Fatalf("%s: the index holds %d records in %d bytes, the file %d in %d", run.Name, records, span, perRun[i], size)
			}
			start += perRun[i]
		}
		if start != len(recs) {
			t.Fatalf("runs hold %d of %d records", start, len(recs))
		}
		var merged []storage.Record
		err := MergeRuns(disk, b.Runs(), func(key, value []byte) error {
			merged = append(merged, storage.Record{Key: slices.Clone(key), Value: slices.Clone(value)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		check("the merge", merged, slices.Clone(recs))
	})
}
