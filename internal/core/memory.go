package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/hamr-go/hamr/internal/extsort"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/storage"
)

// MemoryManager tracks a node's in-memory data budget. "Instead of cores,
// YARN schedules the tasks based on available memory on nodes" (§3.1);
// HAMR similarly associates memory with computation in a fine-grain way:
// buffered bins and reduce accumulations reserve bytes here, and reduce
// flowlets spill to local disk when the budget is exhausted (§2).
type MemoryManager struct {
	budget int64
	used   atomic.Int64
}

// MemoryManager is the budget protocol the extsort run builder consults.
var _ extsort.Budget = (*MemoryManager)(nil)

// NewMemoryManager returns a manager with the given byte budget; budget
// <= 0 means unlimited.
func NewMemoryManager(budget int64) *MemoryManager {
	return &MemoryManager{budget: budget}
}

// Reserve attempts to reserve n bytes, reporting whether the budget allows
// it. A false return signals the caller to spill (or stall) first; the
// reservation is not made.
func (m *MemoryManager) Reserve(n int64) bool {
	if m.budget <= 0 {
		m.used.Add(n)
		return true
	}
	for {
		cur := m.used.Load()
		if cur+n > m.budget && cur > 0 {
			return false
		}
		if m.used.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// ForceReserve reserves n bytes even past the budget (a single group larger
// than the whole budget must still fit somewhere).
func (m *MemoryManager) ForceReserve(n int64) { m.used.Add(n) }

// Release returns n bytes to the budget.
func (m *MemoryManager) Release(n int64) { m.used.Add(-n) }

// Used returns current reserved bytes.
func (m *MemoryManager) Used() int64 { return m.used.Load() }

// Budget returns the configured budget (0 = unlimited).
func (m *MemoryManager) Budget() int64 { return m.budget }

// kvRec is one buffered reduce input pair. Runs hold them sorted by key,
// stable in arrival order, so a key's values reassemble in the order they
// arrived within each run.
type kvRec struct {
	key   string
	value any
}

func kvRecCompare(a, b kvRec) int { return strings.Compare(a.key, b.key) }

// kvFormat stores kvRec in run files as raw key bytes plus the
// codec-encoded value.
type kvFormat struct{}

func (kvFormat) AppendRecord(kbuf, vbuf []byte, r kvRec) ([]byte, []byte, error) {
	kbuf = append(kbuf, r.key...)
	vbuf, err := EncodeValue(vbuf, r.value)
	return kbuf, vbuf, err
}

func (kvFormat) DecodeRecord(key, value []byte) (kvRec, error) {
	v, _, err := DecodeValue(value)
	if err != nil {
		return kvRec{}, err
	}
	return kvRec{key: string(key), value: v}, nil
}

// accumulator collects the grouped input of one reduce flowlet on one
// node. Pairs buffer in an extsort run builder, in chunks drawn from the
// node's chunk list, until the memory manager denies a reservation, at
// which point the buffered pairs are sorted by key and spilled to the
// node's local disk as a run file. Iterate merges the spilled runs with
// the in-memory chunks in key order.
type accumulator struct {
	mu     sync.Mutex
	b      *extsort.RunBuilder[kvRec]
	chunks *par.List[[]kvRec]
	mem    *MemoryManager
	disk   storage.Disk
	closed bool // set by close: the job is over here, adds are refused
}

// newAccumulator returns an empty accumulator that buffers in the node's
// chunk list and names its run files under prefix.
func newAccumulator(mem *MemoryManager, disk storage.Disk, chunks *par.List[[]kvRec], prefix string, reg *metrics.Registry) *accumulator {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	var budget extsort.Budget
	if mem != nil {
		budget = mem
	}
	return &accumulator{
		mem:    mem,
		disk:   disk,
		chunks: chunks,
		b: extsort.NewRunBuilder(extsort.BuilderConfig[kvRec]{
			Cmp:     kvRecCompare,
			Format:  kvFormat{},
			Disk:    disk,
			RunName: func(i int) string { return fmt.Sprintf("%s/run-%04d", prefix, i) },
			Chunks:  chunks,
			Budget:  budget,
			OnSpill: func(_ int, bytes int64) {
				reg.Inc("reduce.spills")
				reg.Add("reduce.spill.bytes", bytes)
			},
		}),
	}
}

// add ingests one pair, spilling first if the budget is exhausted.
func (a *accumulator) add(kv KV) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrJobAborted
	}
	err := a.b.Add(kvRec{key: kv.Key, value: kv.Value}, kv.Size())
	if errors.Is(err, extsort.ErrNoDisk) {
		return fmt.Errorf("core: reduce memory budget exhausted and no spill disk configured")
	}
	return err
}

// Count returns the pairs ingested so far.
func (a *accumulator) Count() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.b.Count()
}

// release hands drained chunks back to the node's list and their bytes
// back to the memory budget.
func (a *accumulator) release(chunks [][]kvRec, bytes int64) {
	for _, c := range chunks {
		a.chunks.Put(c)
	}
	if a.mem != nil {
		a.mem.Release(bytes)
	}
}

// close returns the chunks still buffered and removes the spill runs not
// yet merged, once the job is over on this node, and refuses later adds.
// After a clean job iterate has already drained everything; after an abort
// this is what sends the chunks home and clears the disk.
func (a *accumulator) close() {
	a.mu.Lock()
	chunks, bytes, runs := a.b.Drain()
	a.closed = true
	a.mu.Unlock()
	a.release(chunks, bytes)
	for _, r := range runs {
		_ = a.disk.Remove(r)
	}
}

// iterate calls fn once per key with all of that key's values: in arrival
// order within each run, runs in spill order, then the in-memory chunks.
// Each group's values are copied out into a slice of their own, which fn
// may keep. After iteration the chunks go back to the node's list, the
// spill files are removed and the memory reservation is released.
func (a *accumulator) iterate(fn func(key string, values []any) error) error {
	a.mu.Lock()
	chunks, bytes, runs := a.b.Drain()
	a.mu.Unlock()

	sources := make([]extsort.Source[kvRec], 0, len(runs)+len(chunks))
	readers := make([]*extsort.RunReader[kvRec], 0, len(runs))
	defer func() {
		for _, r := range readers {
			r.Close()
		}
		a.release(chunks, bytes)
		for _, r := range runs {
			_ = a.disk.Remove(r)
		}
	}()
	for _, name := range runs {
		rr, err := extsort.OpenRun(a.disk, name, kvFormat{})
		if err != nil {
			return fmt.Errorf("core: open spill run: %w", err)
		}
		readers = append(readers, rr)
		sources = append(sources, rr)
	}
	for _, c := range chunks {
		sources = append(sources, extsort.SliceSource(c))
	}

	// values collects the current group, reused from group to group; fn
	// gets an exact-size copy, since reduce tasks hold it past the call.
	var key string
	var values []any
	flush := func() error {
		err := fn(key, slices.Clone(values))
		clear(values)
		values = values[:0]
		return err
	}
	err := extsort.Merge(sources, kvRecCompare, func(r kvRec, _ int) error {
		if len(values) > 0 && r.key != key {
			if err := flush(); err != nil {
				return err
			}
		}
		key = r.key
		values = append(values, r.value)
		return nil
	})
	if err == nil && len(values) > 0 {
		err = flush()
	}
	return err
}
