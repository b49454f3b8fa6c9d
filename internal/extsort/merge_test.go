package extsort

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/storage"
)

// testRec is the record type the package tests merge: a key plus a
// sequence number that makes stability violations visible.
type testRec struct {
	key string
	seq int64
}

func testCmp(a, b testRec) int { return strings.Compare(a.key, b.key) }

// testFormat stores testRec as raw key bytes and a decimal seq value.
type testFormat struct{}

func (testFormat) AppendRecord(kbuf, vbuf []byte, r testRec) ([]byte, []byte, error) {
	kbuf = append(kbuf, r.key...)
	vbuf = fmt.Appendf(vbuf, "%d", r.seq)
	return kbuf, vbuf, nil
}

func (testFormat) DecodeRecord(key, value []byte) (testRec, error) {
	var seq int64
	if _, err := fmt.Sscanf(string(value), "%d", &seq); err != nil {
		return testRec{}, err
	}
	return testRec{key: string(key), seq: seq}, nil
}

// buildRuns deals raw bytes into numRuns sorted runs, deterministically.
func buildRuns(raw []byte, numRuns, vocab int) [][]testRec {
	runs := make([][]testRec, numRuns)
	for i, b := range raw {
		r := testRec{key: fmt.Sprintf("k%03d", int(b)%vocab), seq: int64(i)}
		runs[i%numRuns] = append(runs[i%numRuns], r)
	}
	for i := range runs {
		SortStable(runs[i], testCmp)
	}
	return runs
}

// referenceMerge is the specification the loser tree must match: the
// concatenation of all runs (in run order), stably sorted by (key, run
// index). Within one key, records from earlier runs come first, and
// within one run their original order is preserved.
func referenceMerge(runs [][]testRec) []testRec { return referenceMergeBy(runs, testCmp) }

func referenceMergeBy[T any](runs [][]T, cmp Compare[T]) []T {
	type tagged struct {
		rec T
		src int
	}
	var all []tagged
	for s, run := range runs {
		for _, r := range run {
			all = append(all, tagged{r, s})
		}
	}
	SortStable(all, func(a, b tagged) int {
		if c := cmp(a.rec, b.rec); c != 0 {
			return c
		}
		return a.src - b.src
	})
	out := make([]T, len(all))
	for i, t := range all {
		out[i] = t.rec
	}
	return out
}

// partRec / partFormat mirror the MapReduce engine's run records: ordered
// by (partition, key), the key behind a 4-byte big-endian partition, which
// a sectioned run cuts off. testRec / testFormat mirror the HAMR
// accumulator's: ordered by key, the key stored raw in a plain run.
type partRec struct {
	part int
	key  string
	seq  int64
}

func partCmp(a, b partRec) int {
	if a.part != b.part {
		return a.part - b.part
	}
	return strings.Compare(a.key, b.key)
}

type partFormat struct{}

func (partFormat) AppendRecord(kbuf, vbuf []byte, r partRec) ([]byte, []byte, error) {
	kbuf = binary.BigEndian.AppendUint32(kbuf, uint32(r.part))
	return append(kbuf, r.key...), fmt.Appendf(vbuf, "%d", r.seq), nil
}

func (partFormat) DecodeRecord(key, value []byte) (partRec, error) {
	r, err := testFormat{}.DecodeRecord(key[4:], value)
	return partRec{part: int(binary.BigEndian.Uint32(key)), key: r.key, seq: r.seq}, err
}

// buildPartRuns deals raw bytes into numRuns runs sorted by (partition,
// key): keys are the input bytes themselves (empty keys and 0xff
// included), partitions lie on both sides of 256.
func buildPartRuns(raw []byte, numRuns int) [][]partRec {
	runs := make([][]partRec, numRuns)
	for i, b := range raw {
		r := partRec{part: int(b%4) * 100, key: string(raw[i : i+int(b)%2]), seq: int64(i)}
		runs[i%numRuns] = append(runs[i%numRuns], r)
	}
	for i := range runs {
		SortStable(runs[i], partCmp)
	}
	return runs
}

// plainRuns names plain run files as Runs.
func plainRuns(names []string) []Run {
	runs := make([]Run, len(names))
	for i, name := range names {
		runs[i] = Run{Name: name}
	}
	return runs
}

// writeSorted writes an already-sorted slice of records as one run file.
func writeSorted[T any](disk storage.Disk, name string, f Format[T], recs []T) error {
	return writeRun(disk, name, f, []Source[T]{SliceSource(recs)}, nil)
}

// writeTestRun writes sorted records as one run file: sectioned by the
// first prefix bytes of their encoded keys, or plain when prefix is 0.
func writeTestRun[T any](t testing.TB, disk storage.Disk, name string, f Format[T], recs []T, prefix int) Run {
	t.Helper()
	if prefix == 0 {
		if err := writeSorted(disk, name, f, recs); err != nil {
			t.Fatal(err)
		}
		return Run{Name: name}
	}
	w, err := CreateSectioned(disk, name, prefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		k, v, err := f.AppendRecord(nil, nil, rec)
		if err == nil {
			err = w.Write(k, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// checkByteMerge writes the sorted runs to a disk (see writeTestRun),
// reduces them to at most factor run files with the byte merge, and
// requires the merge of what is left to be the reference merge of the
// original runs: same order, ties to the lower run index, nothing lost —
// and every consumed run removed.
func checkByteMerge[T comparable](t *testing.T, runs [][]T, f Format[T], cmp Compare[T], prefix, factor int) {
	t.Helper()
	want := referenceMergeBy(runs, cmp)
	disk := storage.NewMemDisk(0)
	list := make([]Run, len(runs))
	for i, run := range runs {
		list[i] = writeTestRun(t, disk, fmt.Sprintf("run-%03d", i), f, run, prefix)
	}
	passes := 0
	left, err := MergeToFactor(disk, list, factor,
		func(pass int) string { return fmt.Sprintf("interm-%03d", pass) }, func() { passes++ })
	if err != nil {
		t.Fatal(err)
	}
	if factor > 1 && len(left) > factor {
		t.Fatalf("%d runs left, factor %d", len(left), factor)
	}
	if got := disk.List(""); len(got) != len(left) {
		t.Fatalf("disk holds %v, merge returned %v", got, left)
	}
	var got []T
	err = MergeRuns(disk, left, func(key, value []byte) error {
		r, err := f.DecodeRecord(key, value)
		got = append(got, r)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("byte merge (factor %d, %d passes): %d records, want %d", factor, passes, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte merge (factor %d, %d passes): record %d = %+v, want %+v", factor, passes, i, got[i], want[i])
		}
	}
}

// mergeAll collects the loser-tree merge of the given sources.
func mergeAll(t *testing.T, sources []Source[testRec]) []testRec {
	t.Helper()
	var got []testRec
	if err := Merge(sources, testCmp, func(r testRec, _ int) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestMergeMatchesReference(t *testing.T) {
	raw := make([]byte, 500)
	for i := range raw {
		raw[i] = byte((i*37 + 11) % 251)
	}
	for _, k := range []int{1, 2, 3, 5, 8, 13} {
		runs := buildRuns(raw, k, 17)
		want := referenceMerge(runs)
		sources := make([]Source[testRec], k)
		for i := range runs {
			sources[i] = SliceSource(runs[i])
		}
		got := mergeAll(t, sources)
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d records, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: record %d = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}

func TestMergeMixedFileAndSliceSources(t *testing.T) {
	disk := storage.NewMemDisk(0)
	raw := make([]byte, 300)
	for i := range raw {
		raw[i] = byte((i*53 + 7) % 240)
	}
	runs := buildRuns(raw, 4, 11)
	want := referenceMerge(runs)
	sources := make([]Source[testRec], len(runs))
	for i, run := range runs {
		if i%2 == 0 {
			name := fmt.Sprintf("run-%d", i)
			if err := writeSorted(disk, name, testFormat{}, run); err != nil {
				t.Fatal(err)
			}
			rr, err := OpenRun(disk, name, testFormat{})
			if err != nil {
				t.Fatal(err)
			}
			defer rr.Close()
			sources[i] = rr
		} else {
			sources[i] = SliceSource(run)
		}
	}
	got := mergeAll(t, sources)
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestMergeGroupedBoundaries(t *testing.T) {
	runs := [][]testRec{
		{{key: "a", seq: 0}, {key: "c", seq: 1}},
		{{key: "a", seq: 2}, {key: "b", seq: 3}},
		{{key: "a", seq: 4}},
	}
	sources := make([]Source[testRec], len(runs))
	for i := range runs {
		sources[i] = SliceSource(runs[i])
	}
	var groups [][]testRec
	err := MergeGrouped(sources, testCmp, nil, func(g []testRec) error {
		groups = append(groups, append([]testRec(nil), g...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("%d groups, want 3: %v", len(groups), groups)
	}
	wantSeqs := [][]int64{{0, 2, 4}, {3}, {1}}
	wantKeys := []string{"a", "b", "c"}
	for i, g := range groups {
		if g[0].key != wantKeys[i] {
			t.Errorf("group %d key %q, want %q", i, g[0].key, wantKeys[i])
		}
		for j, r := range g {
			if r.key != wantKeys[i] {
				t.Errorf("group %d mixes keys: %+v", i, g)
			}
			if r.seq != wantSeqs[i][j] {
				t.Errorf("group %d seqs %v, want %v (run-order stability)", i, g, wantSeqs[i])
			}
		}
	}
}

func TestMergeNoSources(t *testing.T) {
	if got := mergeAll(t, nil); len(got) != 0 {
		t.Fatalf("merge of nothing produced %v", got)
	}
	err := MergeGrouped(nil, testCmp, nil, func([]testRec) error {
		t.Fatal("group callback invoked with no sources")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMergeEmptySourcesAmongFull(t *testing.T) {
	sources := []Source[testRec]{
		SliceSource[testRec](nil),
		SliceSource([]testRec{{key: "b", seq: 1}}),
		SliceSource[testRec](nil),
		SliceSource([]testRec{{key: "a", seq: 2}}),
	}
	got := mergeAll(t, sources)
	if len(got) != 2 || got[0].key != "a" || got[1].key != "b" {
		t.Fatalf("merge = %v", got)
	}
}

// FuzzMerge checks the loser tree against the naive reference merge:
// global ordering, group-boundary correctness, and tie-break stability
// for arbitrary inputs dealt into an arbitrary number of runs.
func FuzzMerge(f *testing.F) {
	f.Add([]byte("hello world fuzzing the loser tree"), uint8(3))
	f.Add([]byte{0, 0, 0, 1, 1, 2, 255, 254, 9}, uint8(1))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5}, uint8(7))
	f.Add([]byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, runsRaw uint8) {
		numRuns := int(runsRaw)%9 + 1
		runs := buildRuns(raw, numRuns, 13)
		want := referenceMerge(runs)

		sources := make([]Source[testRec], numRuns)
		for i := range runs {
			sources[i] = SliceSource(runs[i])
		}
		var got []testRec
		var lastSrc = -1
		err := Merge(sources, testCmp, func(r testRec, src int) error {
			if len(got) > 0 {
				prev := got[len(got)-1]
				if c := testCmp(prev, r); c > 0 {
					t.Fatalf("out of order: %+v before %+v", prev, r)
				} else if c == 0 && src < lastSrc {
					t.Fatalf("tie-break instability: src %d after src %d for key %q", src, lastSrc, r.key)
				}
			}
			got = append(got, r)
			lastSrc = src
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
			}
		}

		// Group boundaries: every group uniform, strictly ascending keys,
		// concatenation identical to the flat merge.
		sources = make([]Source[testRec], numRuns)
		for i := range runs {
			sources[i] = SliceSource(runs[i])
		}
		var flat []testRec
		prevKey := ""
		first := true
		err = MergeGrouped(sources, testCmp, nil, func(g []testRec) error {
			if len(g) == 0 {
				t.Fatal("empty group")
			}
			for _, r := range g {
				if r.key != g[0].key {
					t.Fatalf("mixed group: %v", g)
				}
			}
			if !first && g[0].key <= prevKey {
				t.Fatalf("group key %q after %q", g[0].key, prevKey)
			}
			first, prevKey = false, g[0].key
			flat = append(flat, g...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(flat) != len(want) {
			t.Fatalf("grouped merge lost records: %d vs %d", len(flat), len(want))
		}
		for i := range want {
			if flat[i] != want[i] {
				t.Fatalf("grouped record %d = %+v, want %+v", i, flat[i], want[i])
			}
		}

		// The byte merge of run files agrees with the typed reference, in
		// both engines' key layouts.
		factor := int(runsRaw)/9%3 + 2
		checkByteMerge(t, runs, testFormat{}, testCmp, 0, factor)
		checkByteMerge(t, buildPartRuns(raw, numRuns), partFormat{}, partCmp, 4, factor)
	})
}

// TestByteMergeMatchesReference runs the byte-merge check of FuzzMerge on
// inputs large enough for several passes at each factor.
func TestByteMergeMatchesReference(t *testing.T) {
	raw := make([]byte, 900)
	for i := range raw {
		raw[i] = byte((i*37 + 11) % 251)
	}
	for _, k := range []int{1, 2, 5, 9, 16} {
		for _, factor := range []int{2, 3, 4} {
			checkByteMerge(t, buildRuns(raw, k, 17), testFormat{}, testCmp, 0, factor)
			checkByteMerge(t, buildPartRuns(raw, k), partFormat{}, partCmp, 4, factor)
		}
	}
}

// collectRuns is one MergeRuns over the list, every record framed into one
// byte string.
func collectRuns(t *testing.T, disk storage.Disk, runs []Run) []byte {
	t.Helper()
	var out []byte
	err := MergeRuns(disk, runs, func(key, value []byte) error {
		out = binary.AppendUvarint(out, uint64(len(key)))
		out = append(out, key...)
		out = binary.AppendUvarint(out, uint64(len(value)))
		out = append(out, value...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMergeToFactorSchedule holds the merge schedule to what it promises,
// for 1 to 40 sectioned runs — of random sizes, sharing keys, and again all
// of one size — at every factor from 2 to 8: the records that leave
// MergeToFactor and one MergeRuns are byte for byte those of one MergeRuns
// over the original list, order and tie-break included; at most factor
// runs remain, and exactly factor when any pass ran; the passes are the
// least there can be; a pass's inputs are gone from the disk; the bytes the
// passes write never exceed what merging the first factor runs again and
// again would (the schedule this one replaced: in pass i it merged the
// first factor+i*(factor-1) original runs, a prefix inside which the first
// factor runs of this schedule's list always lie, and the lightest window
// weighs no more than they do), and for runs of one size stay within
// n * ceil(log_factor n) of them.
func TestMergeToFactorSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for n := 1; n <= 40; n++ {
		for factor := 2; factor <= 8; factor++ {
			for _, equal := range []bool{false, true} {
				disk := storage.NewMemDisk(0)
				runs := make([]Run, n)
				sizes := make([]int64, n)
				seq := 0
				for i := range runs {
					recs := make([]partRec, 12)
					if !equal {
						recs = make([]partRec, 1+rng.Intn(30))
					}
					for j := range recs {
						// Five keys in three partitions: every run shares
						// keys with its neighbours. Keys and values are of
						// one length, so equal counts are equal sizes.
						k := rng.Intn(5)
						recs[j] = partRec{part: k % 3 * 300, key: fmt.Sprintf("k%d", k), seq: int64(10000 + seq)}
						seq++
					}
					SortStable(recs, partCmp)
					runs[i] = writeTestRun(t, disk, fmt.Sprintf("run-%02d", i), partFormat{}, recs, 4)
					sizes[i], _ = disk.Size(runs[i].Name)
				}
				want := collectRuns(t, disk, runs)

				var names []string
				var written int64
				left, err := MergeToFactor(disk, runs, factor,
					func(pass int) string {
						names = append(names, fmt.Sprintf("interm-%02d", pass))
						return names[pass]
					},
					func() {
						sz, err := disk.Size(names[len(names)-1])
						if err != nil {
							t.Fatal(err)
						}
						written += sz
					})
				if err != nil {
					t.Fatal(err)
				}
				cell := fmt.Sprintf("n=%d factor=%d equal=%t", n, factor, equal)
				wantPasses, wantLeft := 0, n
				if n > factor {
					wantPasses = (n - factor + factor - 2) / (factor - 1)
					wantLeft = factor
				}
				if len(names) != wantPasses || len(left) != wantLeft {
					t.Fatalf("%s: %d passes left %d runs, want %d and %d", cell, len(names), len(left), wantPasses, wantLeft)
				}
				var leftNames []string
				for _, run := range left {
					leftNames = append(leftNames, run.Name)
				}
				slices.Sort(leftNames)
				if onDisk := disk.List(""); !slices.Equal(onDisk, leftNames) {
					t.Fatalf("%s: disk holds %v, the list %v", cell, onDisk, leftNames)
				}
				if got := collectRuns(t, disk, left); !bytes.Equal(got, want) {
					t.Fatalf("%s: the merge of what is left differs from the merge of the original runs", cell)
				}

				var parent int64
				for s := slices.Clone(sizes); len(s) > factor; {
					var sum int64
					for _, sz := range s[:factor] {
						sum += sz
					}
					parent += sum
					s = append([]int64{sum}, s[factor:]...)
				}
				if written > parent {
					t.Errorf("%s: passes wrote %d bytes, merging the front again and again writes %d", cell, written, parent)
				}
				if equal {
					levels := 0
					for reach := 1; reach < n; reach *= factor {
						levels++
					}
					if bound := int64(n*levels) * sizes[0]; written > bound {
						t.Errorf("%s: passes wrote %d bytes, want at most n*ceil(log_f n) = %d runs' worth, %d",
							cell, written, n*levels, bound)
					}
				}
			}
		}
	}
}

func TestRunReaderPropagatesCorruption(t *testing.T) {
	disk := storage.NewMemDisk(0)
	f, err := disk.Create("bad")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF}); err != nil { // truncated uvarint
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rr, err := OpenRun(disk, "bad", testFormat{})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if _, err := rr.Next(); err == nil || err == io.EOF {
		t.Fatalf("corrupt run read error = %v", err)
	}
}
