package mapreduce

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hamr-go/hamr/internal/extsort"
	"github.com/hamr-go/hamr/internal/storage"
)

func sortedRun(recs []rec) []rec {
	rs := append([]rec(nil), recs...)
	extsort.SortStable(rs, recCompare)
	return rs
}

func openRuns(t *testing.T, disk storage.Disk, names []string) ([]extsort.Source[rec], func()) {
	t.Helper()
	var readers []*extsort.RunReader[rec]
	var sources []extsort.Source[rec]
	for _, name := range names {
		rr, err := extsort.OpenRun(disk, name, runFormat{})
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, rr)
		sources = append(sources, rr)
	}
	return sources, func() {
		for _, rr := range readers {
			rr.Close()
		}
	}
}

func TestWriteOpenRunRoundTrip(t *testing.T) {
	disk := storage.NewMemDisk(0)
	run := sortedRun([]rec{
		{part: 0, key: "a", value: int64(1)},
		{part: 0, key: "b", value: "str"},
		{part: 2, key: "a", value: 3.5},
	})
	if err := extsort.WriteRun(disk, "r", runFormat{}, run); err != nil {
		t.Fatal(err)
	}
	rr, err := extsort.OpenRun(disk, "r", runFormat{})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	var got []rec
	for {
		r, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if len(got) != len(run) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range run {
		if got[i].part != run[i].part || got[i].key != run[i].key {
			t.Errorf("record %d: %+v != %+v", i, got[i], run[i])
		}
	}
	if got[1].value.(string) != "str" || got[2].value.(float64) != 3.5 {
		t.Error("values corrupted")
	}
}

func TestMergeRunsGroupsAcrossRuns(t *testing.T) {
	disk := storage.NewMemDisk(0)
	runs := [][]rec{
		{{part: 0, key: "a", value: int64(1)}, {part: 0, key: "c", value: int64(2)}},
		{{part: 0, key: "a", value: int64(3)}, {part: 1, key: "a", value: int64(4)}},
		{{part: 0, key: "b", value: int64(5)}},
	}
	var names []string
	for i, r := range runs {
		name := fmt.Sprintf("r%d", i)
		if err := extsort.WriteRun(disk, name, runFormat{}, sortedRun(r)); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	sources, closeAll := openRuns(t, disk, names)
	defer closeAll()
	type groupKey struct {
		part int
		key  string
	}
	got := map[groupKey]int{}
	var order []groupKey
	err := extsort.MergeGrouped(sources, recCompare, nil, func(group []rec) error {
		gk := groupKey{group[0].part, group[0].key}
		got[gk] = len(group)
		order = append(order, gk)
		for _, g := range group {
			if g.part != gk.part || g.key != gk.key {
				t.Errorf("mixed group: %+v", group)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[groupKey]int{
		{0, "a"}: 2, {0, "b"}: 1, {0, "c"}: 1, {1, "a"}: 1,
	}
	if len(got) != len(want) {
		t.Fatalf("groups = %v", got)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("group %v has %d values, want %d", k, got[k], n)
		}
	}
	// Groups must arrive in (part, key) order.
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if a.part > b.part || (a.part == b.part && a.key >= b.key) {
			t.Errorf("groups out of order: %v before %v", a, b)
		}
	}
}

// Property: merging K disk runs yields exactly the multiset of the inputs,
// grouped by (part, key), in sorted group order — for any input split.
func TestMergeRunsProperty(t *testing.T) {
	iter := 0
	f := func(raw []uint8, runsRaw uint8) bool {
		iter++
		disk := storage.NewMemDisk(0)
		numRuns := int(runsRaw)%4 + 1
		runs := make([][]rec, numRuns)
		want := map[string]int{}
		for i, b := range raw {
			r := rec{
				part:  int(b) % 3,
				key:   fmt.Sprintf("k%d", (int(b)/3)%7),
				value: int64(i),
			}
			runs[i%numRuns] = append(runs[i%numRuns], r)
			want[fmt.Sprintf("%d/%s", r.part, r.key)]++
		}
		var readers []*extsort.RunReader[rec]
		var sources []extsort.Source[rec]
		for i, r := range runs {
			if len(r) == 0 {
				continue
			}
			name := fmt.Sprintf("p%d-r%d", iter, i)
			if err := extsort.WriteRun(disk, name, runFormat{}, sortedRun(r)); err != nil {
				return false
			}
			rr, err := extsort.OpenRun(disk, name, runFormat{})
			if err != nil {
				return false
			}
			readers = append(readers, rr)
			sources = append(sources, rr)
		}
		got := map[string]int{}
		err := extsort.MergeGrouped(sources, recCompare, nil, func(group []rec) error {
			got[fmt.Sprintf("%d/%s", group[0].part, group[0].key)] += len(group)
			return nil
		})
		for _, rr := range readers {
			rr.Close()
		}
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for k, n := range want {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the in-memory reduce merge (slice sources through the same
// loser tree) yields every record in key order, like the old dedicated
// mergeInMemory helper did.
func TestMergeInMemoryMatchesSort(t *testing.T) {
	f := func(raw []uint8, segsRaw uint8) bool {
		numSegs := int(segsRaw)%5 + 1
		segs := make([][]rec, numSegs)
		var all []string
		for i, b := range raw {
			key := fmt.Sprintf("k%02d", int(b)%20)
			segs[i%numSegs] = append(segs[i%numSegs], rec{key: key, value: int64(i)})
			all = append(all, key)
		}
		sources := make([]extsort.Source[rec], numSegs)
		for i := range segs {
			extsort.SortStable(segs[i], recCompare)
			sources[i] = extsort.SliceSource(segs[i])
		}
		var merged []rec
		err := extsort.Merge(sources, recCompare, func(r rec, _ int) error {
			merged = append(merged, r)
			return nil
		})
		if err != nil {
			return false
		}
		if len(merged) != len(all) {
			return false
		}
		for i := 1; i < len(merged); i++ {
			if merged[i-1].key > merged[i].key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(67))}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeFactorMultiPass(t *testing.T) {
	// With MergeFactor 2 and many spills, the map task must do extra
	// merge passes (visible in the mr.merge.passes counter) and still
	// produce correct results.
	c := newTestCluster(t, 2)
	want := writeCorpus(t, c, "in/corpus.txt", 600)
	e := NewEngine(c, Config{SortBufferBytes: 1 << 10, MergeFactor: 2})
	if _, err := e.Run(wordCountJob(false)); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Counter("mr.merge.passes").Value(); got == 0 {
		t.Error("no multi-pass merges with MergeFactor 2")
	}
	got := parseCounts(t, c, "out/")
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%q] = %d, want %d", w, got[w], n)
		}
	}
}

// nastyKey draws short keys from bytes that trip naive orderings — NUL,
// 0xff, both sides of 0x80 — so ties, prefixes and the empty key are all
// common.
func nastyKey(rng *rand.Rand) string {
	alphabet := []byte{0x00, 0x01, 'a', 'b', 0x7f, 0x80, 0xfe, 0xff}
	b := make([]byte, rng.Intn(5))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// TestRunKeyBytesOrderAsRecCompare pins the byte-order contract extsort's
// byte merge relies on (extsort.Format): bytes.Compare on two encoded run
// keys has the sign of recCompare on the records.
func TestRunKeyBytesOrderAsRecCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	parts := []int{0, 1, 2, 255, 256, 257, 65535, 65536, 1 << 24, 1<<31 - 1}
	encode := func(r rec) []byte {
		k, _, err := runFormat{}.AppendRecord(nil, nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	for i := 0; i < 50000; i++ {
		a := rec{part: parts[rng.Intn(len(parts))], key: nastyKey(rng)}
		b := rec{part: parts[rng.Intn(len(parts))], key: nastyKey(rng)}
		if got, want := sign(bytes.Compare(encode(a), encode(b))), sign(recCompare(a, b)); got != want {
			t.Fatalf("(%d,%q) vs (%d,%q): bytes order %d, recCompare %d", a.part, a.key, b.part, b.key, got, want)
		}
	}
}
