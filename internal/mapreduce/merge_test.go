package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/extsort"
	"github.com/hamr-go/hamr/internal/storage"
)

// What this file held before the reduce side merged bytes ran extsort's
// generic merge through the engine's typed record; extsort's own tests hold
// the same behaviour on the same key layout (partFormat: a 4-byte
// big-endian partition, then the key): run files round-trip and merge in
// (partition, key) order with nothing lost in checkByteMerge
// (TestByteMergeMatchesReference, FuzzMerge), groups are uniform and
// ascending in FuzzMerge and TestMergeGroupedBoundaries, in-memory sources
// merge like sorted input in TestMergeMatchesReference. What is the
// engine's own stays here: the grouper over run keys, and the key layout.

// The grouper over a merge of runs: a group holds every record of one
// (partition, key), groups arrive in that order, inside a group the values
// of a lower run come first, and a group of one record is not decoded.
func TestMergeGroupsAcrossRuns(t *testing.T) {
	type rec struct {
		part  int
		key   string
		value int64
	}
	disk := storage.NewMemDisk(0)
	var runs []extsort.Run
	for i, run := range [][]rec{
		{{0, "a", 1}, {0, "c", 2}, {256, "", 6}},
		{{0, "a", 3}, {1, "a", 4}},
		{{0, "a", 7}, {0, "b", 5}},
	} {
		name := fmt.Sprintf("run-%d", i)
		w, err := extsort.CreateRawRun(disk, name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range run {
			v, err := core.EncodeValue(nil, r.value)
			if err == nil {
				err = w.Write(appendRunKey(nil, r.part, r.key), v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, extsort.Run{Name: name})
	}
	var got []string
	line := func(key string, values ...any) { got = append(got, key+": "+fmt.Sprint(values...)) }
	groups := &groupReducer{
		em: &taskEmitter{},
		red: ReducerFunc(func(key string, values []any, _ Emitter) error {
			line(key, values...)
			return nil
		}),
		single: func(key, value []byte) error {
			v, _, err := core.DecodeValue(value)
			line(fmt.Sprintf("%x %s alone", key[:4], key[4:]), v)
			return err
		},
	}
	if err := extsort.MergeRuns(disk, runs, groups.add); err != nil {
		t.Fatal(err)
	}
	if err := groups.flush(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"a: 1 3 7",
		"00000000 b alone: 5",
		"00000000 c alone: 2",
		"00000001 a alone: 4",
		"00000100  alone: 6",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("groups:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
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

// TestRunKeyBytesOrder pins the byte-order contract extsort's sort buffer
// and byte merges rely on (extsort.Format): bytes.Compare on two run keys
// orders them by partition first and by key, as strings compare, second.
func TestRunKeyBytesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	parts := []int{0, 1, 2, 255, 256, 257, 65535, 65536, 1 << 24, 1<<31 - 1}
	for i := 0; i < 50000; i++ {
		pa, ka := parts[rng.Intn(len(parts))], nastyKey(rng)
		pb, kb := parts[rng.Intn(len(parts))], nastyKey(rng)
		want := strings.Compare(ka, kb)
		if pa != pb {
			want = pa - pb
		}
		got := bytes.Compare(appendRunKey(nil, pa, ka), appendRunKey(nil, pb, []byte(kb)))
		if (got < 0) != (want < 0) || (got > 0) != (want > 0) {
			t.Fatalf("(%d,%q) vs (%d,%q): bytes order %d, want the sign of %d", pa, ka, pb, kb, got, want)
		}
	}
}
