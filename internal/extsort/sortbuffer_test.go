package extsort

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/par"
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
	if cfg.Index == nil {
		cfg.Index = par.NewSlices[uint32](0)
	}
	if cfg.Blocks == nil {
		cfg.Blocks = par.NewSlices[byte](SortBlockSize)
	}
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

// sumCombiner folds each key group of a spill, values decimal integers,
// into one record holding their sum, and logs every group it saw. Add
// sees a spill's records one at a time, so it keeps the open group's key.
type sumCombiner struct {
	write  func(key, value []byte) error
	key    []byte
	vals   []string
	seen   []string
	begins int
	addErr error
}

func (c *sumCombiner) Begin(write func(key, value []byte) error) { c.write = write; c.begins++ }

func (c *sumCombiner) Add(key, value []byte) error {
	if c.addErr != nil {
		return c.addErr
	}
	if len(c.vals) > 0 && !bytes.Equal(key, c.key) {
		if err := c.flush(); err != nil {
			return err
		}
	}
	c.key = append(c.key[:0], key...)
	c.vals = append(c.vals, string(value))
	return nil
}

func (c *sumCombiner) End(flush bool) error {
	var err error
	if flush {
		err = c.flush()
	}
	c.write, c.vals = nil, c.vals[:0]
	return err
}

func (c *sumCombiner) flush() error {
	if len(c.vals) == 0 {
		return nil
	}
	sum := 0
	for _, v := range c.vals {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		sum += n
	}
	c.seen = append(c.seen, fmt.Sprintf("%s:%s", c.key, strings.Join(c.vals, ",")))
	c.vals = c.vals[:0]
	return c.write(c.key, []byte(strconv.Itoa(sum)))
}

// What the typed builder's Transform test held: a combiner collapses each
// key group of the sorted buffer, the run holds its output, and OnSpill
// still accounts for the records that went in. Here also: the combiner is
// handed groups in key order with their values in arrival order, one
// record at a time.
func TestSortBufferCombine(t *testing.T) {
	disk := storage.NewMemDisk(0)
	var preCount int
	var preBytes int64
	comb := &sumCombiner{}
	b := sortBufferOn(disk, 0, SortBufferConfig{
		Combine: comb,
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
	if want := "k0:0,2,4 k1:1,3,5 solo:6"; strings.Join(comb.seen, " ") != want {
		t.Fatalf("combiner saw %v, want %s", comb.seen, want)
	}
	if comb.begins != 1 || comb.write != nil {
		t.Fatalf("one spill began the combiner %d times and left it open: %v", comb.begins, comb.write != nil)
	}
	var got []string
	for _, r := range readRun(t, disk, b.Runs()[0]) {
		got = append(got, fmt.Sprintf("%s=%s", r.Key, r.Value))
	}
	if want := "k0=6 k1=9 solo=6"; strings.Join(got, " ") != want {
		t.Fatalf("combined run = %v, want %s", got, want)
	}
}

// A combiner's error fails the spill, which reports no run, and still
// ends the combiner, without a flush, and gives the index back.
func TestSortBufferCombineError(t *testing.T) {
	disk := storage.NewMemDisk(0)
	boom := fmt.Errorf("boom")
	spilled := false
	comb := &sumCombiner{addErr: boom}
	index := par.NewSlices[uint32](0)
	b := sortBufferOn(disk, 0, SortBufferConfig{
		Index:   index,
		Combine: comb,
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
	if comb.write != nil || len(comb.seen) != 0 {
		t.Fatalf("failed spill left the combiner open (%v) or flushed it (%v)", comb.write != nil, comb.seen)
	}
	if s := index.Stats(); s.Home() != nil || s.Made != 1 {
		t.Fatalf("index list %+v after a failed spill, want its one index home", s)
	}
}

// A record larger than a storage block gets a block of its own, one
// larger than the threshold is a spill of its own, and both come back
// whole; a spill sends the standard blocks to the list, where the next
// fill finds them, and never the outsized one.
func TestSortBufferLargeRecords(t *testing.T) {
	disk := storage.NewMemDisk(0)
	const threshold = 4 * SortBlockSize
	b := sortBufferOn(disk, threshold, SortBufferConfig{})
	big := bytes.Repeat([]byte{0xAB}, SortBlockSize+SortBlockSize/2) // > a block, < the threshold
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
	if len(b.blocks) != 0 {
		t.Fatalf("after a spill the buffer keeps %d blocks", len(b.blocks))
	}
	if s := b.cfg.Blocks.Stats(); s.Home() != nil || s.Made != 2 {
		t.Fatalf("block list %+v after two spills, want the standard blocks on either side of the big record home", s)
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

// A buffer's storage follows what it is handed, not its threshold, and
// between spills it is the blocks alone. On an index list of its own, each
// spill borrows an index sized to its records, and the next spill reuses
// it.
func TestSortBufferStorageFollowsInput(t *testing.T) {
	disk := storage.NewMemDisk(0)
	b := sortBufferOn(disk, 64<<20, SortBufferConfig{})
	for spill := 1; spill <= 2; spill++ {
		for i := 0; i < 100; i++ {
			if err := b.Add([]byte("key"), []byte(strconv.Itoa(i)), 24); err != nil {
				t.Fatal(err)
			}
		}
		if len(b.blocks) != 1 {
			t.Fatalf("100 small records hold %d blocks", len(b.blocks))
		}
		if err := b.Spill(); err != nil {
			t.Fatal(err)
		}
		l := b.cfg.Index
		if s := l.Stats(); s.Home() != nil || s.Made != 1 {
			t.Fatalf("spill %d: index list %+v, want the one index home", spill, s)
		}
		index := l.Get()
		if c := cap(index); c != 112 {
			t.Fatalf("spill %d: the index has room for %d records, want 112", spill, c)
		}
		l.Put(index)
		got := readRun(t, disk, b.Runs()[spill-1])
		for i, r := range got {
			if string(r.Value) != strconv.Itoa(i) {
				t.Fatalf("spill %d: record %d = %s, want arrival order", spill, i, r.Value)
			}
		}
	}
}

// A spill, and Release for a buffer that did not spill (a failed task),
// send the buffer's standard blocks to its block list and leave an
// outsized one to the collector; a Release after either is a no-op, and a
// buffer filled after another on the same list takes its blocks instead
// of making new ones.
func TestSortBufferReleaseSendsBlocksHome(t *testing.T) {
	disk := storage.NewMemDisk(0)
	blocks := par.NewSlices[byte](SortBlockSize)
	value := bytes.Repeat([]byte{'v'}, SortBlockSize/4)
	for i, spill := range []bool{true, false, true} {
		b := sortBufferOn(disk, 0, SortBufferConfig{Blocks: blocks})
		for r := 0; r < 9; r++ { // three records a block
			if err := b.Add([]byte{byte(r)}, value, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Add([]byte("big"), bytes.Repeat([]byte{'b'}, SortBlockSize+1), 1); err != nil {
			t.Fatal(err)
		}
		if spill {
			if err := b.Spill(); err != nil {
				t.Fatal(err)
			}
		}
		b.Release()
		b.Release()
		if s := blocks.Stats(); s.Home() != nil || s.Made != 3 {
			t.Fatalf("buffer %d: block list %+v, want its three blocks home and no more made", i, s)
		}
		held := [][]byte{blocks.Get(), blocks.Get(), blocks.Get()}
		for _, blk := range held {
			if cap(blk) != SortBlockSize {
				t.Fatalf("buffer %d: the list holds a block of cap %d", i, cap(blk))
			}
			blocks.Put(blk)
		}
	}
}

// A spill builds its index by walking the blocks, so a record in a block
// of its own, made between standard blocks that were reused from the spill
// before, must still come out in its arrival place. Three spills each put
// a record with an outsized value between small ones, under a key the
// small records before and after it share; each run must be the stable
// sort of its fill, and the index must be home after each.
func TestSortBufferIndexRebuild(t *testing.T) {
	disk := storage.NewMemDisk(0)
	index := par.NewSlices[uint32](0)
	b := sortBufferOn(disk, 0, SortBufferConfig{Prefix: 4, Index: index})
	seq := 0
	for spill := 0; spill < 3; spill++ {
		var fill []storage.Record
		for i := 0; i < 3000; i++ {
			key := binary.BigEndian.AppendUint32(nil, uint32(i%3))
			key = fmt.Appendf(key, "k%03d", (i*37)%101)
			value := strconv.AppendInt(nil, int64(seq), 10)
			if i == 1000+500*spill {
				value = append(value, bytes.Repeat([]byte{'.'}, SortBlockSize+1000*spill)...)
			}
			if err := b.Add(key, value, int64(len(key)+len(value))); err != nil {
				t.Fatal(err)
			}
			fill = append(fill, storage.Record{Key: key, Value: value})
			seq++
		}
		if len(b.blocks) < 4 {
			t.Fatalf("spill %d: the fill took %d blocks, want three standard ones and an outsized one", spill, len(b.blocks))
		}
		if err := b.Spill(); err != nil {
			t.Fatal(err)
		}
		slices.SortStableFunc(fill, func(x, y storage.Record) int { return bytes.Compare(x.Key, y.Key) })
		got := readRun(t, disk, b.Runs()[spill])
		if len(got) != len(fill) {
			t.Fatalf("spill %d: run holds %d records, want %d", spill, len(got), len(fill))
		}
		for i, w := range fill {
			if !bytes.Equal(got[i].Key, w.Key) || !bytes.Equal(got[i].Value, w.Value) {
				t.Fatalf("spill %d record %d = (%x, %.12s), want (%x, %.12s)", spill, i, got[i].Key, got[i].Value, w.Key, w.Value)
			}
		}
		if s := index.Stats(); s.Home() != nil || s.Made != 1 {
			t.Fatalf("spill %d: index list %+v, want its one index home", spill, s)
		}
	}
}

// An index word numbers at most maxSortBlocks blocks: the Add that would
// need one more fails, and after a spill the buffer fills again.
func TestSortBufferFull(t *testing.T) {
	defer func(n int) { maxSortBlocks = n }(maxSortBlocks)
	maxSortBlocks = 2
	disk := storage.NewMemDisk(0)
	b := sortBufferOn(disk, 0, SortBufferConfig{})
	value := bytes.Repeat([]byte{1}, SortBlockSize/2)
	for round := 0; round < 2; round++ {
		added := 0
		var err error
		for ; added < 10; added++ {
			if err = b.Add([]byte{byte(added)}, value, 1); err != nil {
				break
			}
		}
		// Half a block and its framing: one record a block.
		if err != errSortBufferFull || added != 2 {
			t.Fatalf("round %d: Add failed with %v after %d records, want errSortBufferFull after 2", round, err, added)
		}
		if err := b.Spill(); err != nil {
			t.Fatal(err)
		}
		if got := readRun(t, disk, b.Runs()[round]); len(got) != 2 || got[1].Key[0] != 1 {
			t.Fatalf("round %d: run holds %d records", round, len(got))
		}
	}
}

// FuzzSortBuffer holds the byte buffer to slices.SortStableFunc on typed
// records in the MapReduce map task's (partition, key) order, seq being
// the arrival stamp: every run is the stable sort of what was added since the run
// before, and MergeRuns over all of them is the stable sort of everything
// — so values inside a key group come back in arrival order. The runs are
// sectioned by the partition, as the map task's are: no file holds a
// prefix, every record comes back under its own, and the index accounts
// for every record and every byte. keyLen's top bit pads the middle
// record's key past a storage block, so that record gets a block of its
// own between standard ones.
func FuzzSortBuffer(f *testing.F) {
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(3), uint16(40))
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 1, 1, 2, 2, 0xff, 0}, uint8(1), uint16(0))
	f.Add(bytes.Repeat([]byte{7, 0xff, 7, 0, 200, 201}, 60), uint8(2), uint16(64))
	f.Add([]byte{}, uint8(0), uint16(10))
	// An outsized record amid ~5 blocks of small ones: in one spill at the
	// end, and then in one of several spills of about two blocks.
	outsized := bytes.Repeat([]byte("abcdefghij\xff\x00"), 500)
	f.Add(outsized, uint8(0x83), uint16(0))
	f.Add(outsized, uint8(0x82), uint16(40000))
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
		if keyLen&0x80 != 0 && len(recs) > 0 {
			mid := &recs[len(recs)/2]
			mid.key += strings.Repeat("\x7f", SortBlockSize)
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
