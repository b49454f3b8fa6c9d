package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/hamr-go/hamr/internal/extsort"
	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/storage"
)

func TestMemoryManagerBudget(t *testing.T) {
	m := NewMemoryManager(100)
	if !m.Reserve(60) {
		t.Fatal("first reservation denied")
	}
	if m.Reserve(60) {
		t.Fatal("over-budget reservation granted")
	}
	m.Release(30)
	if !m.Reserve(60) {
		t.Fatal("reservation denied after release")
	}
	if m.Used() != 90 {
		t.Fatalf("Used = %d", m.Used())
	}
	m.ForceReserve(1000)
	if m.Used() != 1090 {
		t.Fatalf("Used after force = %d", m.Used())
	}
}

func TestMemoryManagerUnlimited(t *testing.T) {
	m := NewMemoryManager(0)
	for i := 0; i < 100; i++ {
		if !m.Reserve(1 << 30) {
			t.Fatal("unlimited manager denied reservation")
		}
	}
}

func TestMemoryManagerFirstReservationAlwaysGranted(t *testing.T) {
	// A single item larger than the whole budget must still be admitted
	// when nothing else is held (otherwise jobs with one huge record
	// would deadlock).
	m := NewMemoryManager(10)
	if !m.Reserve(100) {
		t.Fatal("oversized first reservation denied")
	}
}

// testChunks is a chunk list of the size a node's is, for an accumulator
// tested without a runtime.
func testChunks() *par.List[[]kvRec] {
	return par.NewSlices[kvRec](extsort.DefaultChunkLen)
}

func TestAccumulatorInMemory(t *testing.T) {
	acc := newAccumulator(nil, storage.NewMemDisk(0), testChunks(), "t", nil)
	for i := 0; i < 100; i++ {
		acc.add(KV{Key: fmt.Sprintf("k%02d", i%10), Value: int64(i)})
	}
	if acc.Count() != 100 {
		t.Fatalf("Count = %d", acc.Count())
	}
	var keys []string
	total := 0
	err := acc.iterate(func(key string, values []any) error {
		keys = append(keys, key)
		total += len(values)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 || len(keys) != 10 {
		t.Fatalf("iterated %d values over %d keys", total, len(keys))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("keys not sorted: %v", keys)
	}
}

func TestAccumulatorSpillsAndMerges(t *testing.T) {
	disk := storage.NewMemDisk(0)
	mem := NewMemoryManager(512) // tiny: forces many spills
	acc := newAccumulator(mem, disk, testChunks(), "spill", nil)
	want := map[string]int64{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%02d", i%17)
		if err := acc.add(KV{Key: k, Value: int64(i)}); err != nil {
			t.Fatal(err)
		}
		want[k]++
	}
	if len(disk.List("spill/")) == 0 {
		t.Fatal("no spill runs written")
	}
	got := map[string]int64{}
	var prev string
	first := true
	err := acc.iterate(func(key string, values []any) error {
		if !first && key <= prev {
			t.Fatalf("keys out of order: %q after %q", key, prev)
		}
		first, prev = false, key
		got[key] += int64(len(values))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("key %q: %d values, want %d", k, got[k], n)
		}
	}
	// Spill files are cleaned up after iteration.
	if left := disk.List("spill/"); len(left) != 0 {
		t.Errorf("spill runs not removed: %v", left)
	}
}

// Property: for any key/value sequence and any (tiny) budget, the
// accumulator groups exactly like an in-memory map.
func TestAccumulatorGroupingProperty(t *testing.T) {
	i := 0
	f := func(keys []uint8, budget uint16) bool {
		i++
		disk := storage.NewMemDisk(0)
		mem := NewMemoryManager(int64(budget%2000) + 64)
		acc := newAccumulator(mem, disk, testChunks(), fmt.Sprintf("p%d", i), nil)
		want := map[string][]int64{}
		for j, kRaw := range keys {
			k := fmt.Sprintf("k%d", kRaw%13)
			v := int64(j)
			if err := acc.add(KV{Key: k, Value: v}); err != nil {
				return false
			}
			want[k] = append(want[k], v)
		}
		got := map[string][]int64{}
		err := acc.iterate(func(key string, values []any) error {
			for _, v := range values {
				got[key] = append(got[key], v.(int64))
			}
			return nil
		})
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for k, wv := range want {
			gv := got[k]
			if len(gv) != len(wv) {
				return false
			}
			// Order within a group may differ between the memory and
			// spill paths; compare as multisets.
			sort.Slice(gv, func(a, b int) bool { return gv[a] < gv[b] })
			sort.Slice(wv, func(a, b int) bool { return wv[a] < wv[b] })
			for x := range wv {
				if gv[x] != wv[x] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorSpillWithoutDisk(t *testing.T) {
	mem := NewMemoryManager(32)
	acc := newAccumulator(mem, nil, testChunks(), "x", nil)
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		err = acc.add(KV{Key: fmt.Sprintf("key%d", i), Value: int64(i)})
	}
	if err == nil {
		t.Fatal("budget exhaustion with no spill disk did not error")
	}
}

func TestCreditWindow(t *testing.T) {
	c := newCredit(2)
	c.take()
	c.take()
	if !c.full() {
		t.Fatal("window not full after 2 takes")
	}
	done := make(chan bool, 1)
	go func() { done <- c.waitBelow() }()
	// Give the waiter time to actually stall on the full window.
	deadline := time.After(2 * time.Second)
	for c.Stalls() == 0 {
		select {
		case <-done:
			t.Fatal("waitBelow returned while full")
		case <-deadline:
			t.Fatal("waiter never stalled")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	c.release()
	if ok := <-done; !ok {
		t.Fatal("waitBelow failed")
	}
	if c.Stalls() != 1 {
		t.Errorf("Stalls = %d", c.Stalls())
	}
}

func TestCreditDisabled(t *testing.T) {
	c := newCredit(0)
	for i := 0; i < 100; i++ {
		c.take()
	}
	if c.full() {
		t.Fatal("disabled window reports full")
	}
	if !c.waitBelow() {
		t.Fatal("disabled window blocks")
	}
}

func TestCreditAbort(t *testing.T) {
	c := newCredit(1)
	c.take()
	done := make(chan bool, 1)
	go func() { done <- c.waitBelow() }()
	c.abort()
	if ok := <-done; ok {
		t.Fatal("waitBelow returned true after abort")
	}
}

// A release wakes every waiter, not one: a waiter that only waits for
// room (waitOutBelow before a local delivery) takes no slot, so a wakeup
// handed to it alone left a loader asleep on an empty window for good.
func TestCreditReleaseWakesEveryWaiter(t *testing.T) {
	c := newCredit(1)
	c.take()
	done := make(chan bool, 2)
	for w := int64(1); w <= 2; w++ {
		go func() { done <- c.waitBelow() }()
		// Stalls counts a waiter under the lock it waits with, so once it
		// reads w the waiter is queued on the condition, behind the others.
		for deadline := time.Now().Add(2 * time.Second); c.Stalls() < w; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never stalled", w)
			}
		}
	}
	c.release()
	for i := 0; i < 2; i++ {
		select {
		case ok := <-done:
			if !ok {
				t.Fatal("waitBelow failed")
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of 2 waiters woke after the window emptied", i)
		}
	}
}

func TestBinBufferSealing(t *testing.T) {
	b := newBinBuffer(3, newBinList(4), 1<<20)
	var sealed []*Bin
	for i := 0; i < 10; i++ {
		kv := KV{Key: fmt.Sprint(i), Value: int64(i)}
		if bin := b.add(1, kv, kv.Size()); bin != nil {
			sealed = append(sealed, bin)
		}
	}
	if len(sealed) != 2 || len(sealed[0].KVs) != 4 || len(sealed[1].KVs) != 4 {
		t.Fatalf("%d bins sealed, want 2 (4+4, 2 left)", len(sealed))
	}
	if b.take(0) != nil || b.take(2) != nil {
		t.Fatal("untouched slots hold a bin")
	}
	if rest := b.take(1); rest == nil || len(rest.KVs) != 2 {
		t.Fatalf("take(1) = %+v", rest)
	}
	if b.take(1) != nil {
		t.Fatal("second take returned data")
	}
}

// TestBinListRecycles pins the free list's contract: a returned slab comes
// back empty with its capacity intact and no reference to the old pairs,
// the list never holds more than its bound, and every slab it made is
// home once both are returned.
func TestBinListRecycles(t *testing.T) {
	l := newBinList(4)
	l.Reserve(1)
	a, b := l.Get(), l.Get()
	a.KVs = append(a.KVs, KV{Key: "k", Value: "v"})
	a.Bytes = 2
	kept := a.KVs[:1]
	a.release()
	b.release() // beyond the bound of 1: dropped
	if s := l.Stats(); s.Home() != nil || s.Free != 1 || s.Dropped != 1 {
		t.Fatalf("list %+v, want one slab free and one dropped", s)
	}
	if kept[0] != (KV{}) {
		t.Fatalf("released slab still references %+v", kept[0])
	}
	c := l.Get()
	if c != a || len(c.KVs) != 0 || cap(c.KVs) != 4 || c.Bytes != 0 {
		t.Fatalf("recycled slab = %+v (cap %d), want the first one, empty", c, cap(c.KVs))
	}
}

func TestBinBufferSealsByBytes(t *testing.T) {
	b := newBinBuffer(1, newBinList(1000), 64)
	kv := KV{Key: "k", Value: make([]byte, 100)}
	if b.add(0, kv, kv.Size()) == nil {
		t.Fatal("oversized value did not seal the bin")
	}
}

// TestKVKeyBytesOrderAsKVRecCompare pins the byte-order contract extsort's
// byte merge relies on (extsort.Format): bytes.Compare on two encoded keys
// has the sign of kvRecCompare on the records — keys with NUL, 0xff, both
// sides of 0x80, prefixes of each other and the empty key included.
func TestKVKeyBytesOrderAsKVRecCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alphabet := []byte{0x00, 0x01, 'a', 'b', 0x7f, 0x80, 0xfe, 0xff}
	draw := func() kvRec {
		b := make([]byte, rng.Intn(5))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return kvRec{key: string(b)}
	}
	sign := func(x int) int { return min(max(x, -1), 1) }
	for i := 0; i < 50000; i++ {
		a, b := draw(), draw()
		ka, _, _ := kvFormat{}.AppendRecord(nil, nil, a)
		kb, _, _ := kvFormat{}.AppendRecord(nil, nil, b)
		if got, want := sign(bytes.Compare(ka, kb)), sign(kvRecCompare(a, b)); got != want {
			t.Fatalf("%q vs %q: bytes order %d, kvRecCompare %d", a.key, b.key, got, want)
		}
	}
}

// TestAccumulatorKeepsArrivalOrder: with four-pair chunks, a budget that
// spills in the middle of a chunk and several runs, every key's values
// still reach iterate in the order they were added, and every chunk is
// back on the list afterwards.
func TestAccumulatorKeepsArrivalOrder(t *testing.T) {
	disk := storage.NewMemDisk(0)
	chunks := par.NewSlices[kvRec](4)
	kv := func(i int) KV { return KV{Key: fmt.Sprintf("k%d", i%3), Value: int64(i)} }
	mem := NewMemoryManager(5*kv(0).Size() + 1) // five pairs a spill
	acc := newAccumulator(mem, disk, chunks, "order", nil)
	const n = 23 // four runs of five, three pairs in one chunk
	for i := 0; i < n; i++ {
		if err := acc.add(kv(i)); err != nil {
			t.Fatal(err)
		}
	}
	if runs := disk.List("order/"); len(runs) != 4 {
		t.Fatalf("%d spill runs, want 4", len(runs))
	}
	got := map[string][]int64{}
	err := acc.iterate(func(key string, values []any) error {
		for _, v := range values {
			got[key] = append(got[key], v.(int64))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		var want []int64
		for i := k; i < n; i += 3 {
			want = append(want, int64(i))
		}
		if key := fmt.Sprintf("k%d", k); !slices.Equal(got[key], want) {
			t.Errorf("key %s: values %v, want %v (arrival order)", key, got[key], want)
		}
	}
	if err := chunks.Stats().Home(); err != nil {
		t.Errorf("chunks after iterate: %v", err)
	}
	if mem.Used() != 0 {
		t.Errorf("memory still reserved after iterate: %d", mem.Used())
	}
}
