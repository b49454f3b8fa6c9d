package extsort

import (
	"sync"

	"github.com/hamr-go/hamr/internal/storage"
)

// DefaultChunkLen is the record capacity of a RunBuilder's chunks when
// its config names no ChunkList, and of core's accumulator chunks: 32 KiB
// of (key, value) records.
const DefaultChunkLen = 1024

// FreeList is a free list of slices: a LIFO stack behind a mutex, so
// reuse does not depend on GC timing the way a sync.Pool does. A returned
// slice is always kept: every slice the list made is either out (live) or
// on the stack, so the stack never holds more than the most slices that
// were ever out at once. The zero value is an empty list.
type FreeList[T any] struct {
	mu   sync.Mutex
	free [][]T
	live int // slices handed out and not yet returned
	made int
	peak int // the most slices live at once
}

// Get returns an empty slice off the stack, or nil when the stack is
// empty: the caller makes the slice it needs then. A caller that needs
// more room than a slice has trades it for a larger one; the list counts
// either as the one slice it handed out.
func (l *FreeList[T]) Get() []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.live++
	l.peak = max(l.peak, l.live)
	n := len(l.free)
	if n == 0 {
		l.made++
		return nil
	}
	s := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return s
}

// Put clears a slice the list handed out, or the one it grew into, up to
// its capacity (nothing it held may stay reachable from the free list)
// and stacks it for reuse. The caller must not touch it afterwards.
func (l *FreeList[T]) Put(s []T) {
	clear(s[:cap(s)])
	l.mu.Lock()
	l.live--
	l.free = append(l.free, s[:0])
	l.mu.Unlock()
}

// ChunkStats is a snapshot of a FreeList. Once every slice is home, Live
// is 0 and Made == Free; Made == Peak says no slice was made while one
// sat on the list.
type ChunkStats struct {
	Live, Free, Made, Peak int
}

// Stats returns the list's counts.
func (l *FreeList[T]) Stats() ChunkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ChunkStats{Live: l.live, Free: len(l.free), Made: l.made, Peak: l.peak}
}

// ChunkList is a free list of record chunks of one fixed capacity, so
// filling one never grows it.
type ChunkList[T any] struct {
	FreeList[T]
	size int // cap of every chunk
}

// NewChunkList returns an empty list of chunks with capacity size.
func NewChunkList[T any](size int) *ChunkList[T] {
	return &ChunkList[T]{size: max(size, 1)}
}

// Get returns an empty chunk, allocating one only when the list is empty.
func (l *ChunkList[T]) Get() []T {
	if c := l.FreeList.Get(); c != nil {
		return c
	}
	return make([]T, 0, l.size)
}

// BuilderConfig configures a RunBuilder. Cmp, Format, and RunName are
// required when the builder can spill; Disk may be nil for callers that
// only ever sort in memory (spilling then fails with ErrNoDisk).
type BuilderConfig[T any] struct {
	Cmp    Compare[T]
	Format Format[T]
	Disk   storage.Disk
	// RunName names the i-th spilled run (i counts from 0).
	RunName func(i int) string
	// Chunks is the free list the builder buffers records in. Nil gives
	// the builder a list of its own, with chunks of DefaultChunkLen.
	Chunks *ChunkList[T]
	// Threshold, when > 0, spills after an Add brings buffered bytes to
	// Threshold or beyond — Hadoop's io.sort.mb semantics, where the
	// record that crossed the line is included in the spill. No engine
	// sets it any more (the MapReduce map task, whose policy it is, runs
	// on SortBuffer); it is kept for benchmark/layers.go's extsort probe
	// and the builder's own tests.
	Threshold int64
	// Budget, when non-nil, is consulted before each Add; a denied
	// reservation spills the current buffer first and then forces the
	// reservation — the HAMR reduce-flowlet semantics (§2), where the
	// incoming record is NOT part of the spill. Bytes reserved for
	// buffered records are released on each spill; the caller releases
	// the final buffer's bytes when it is done iterating.
	Budget Budget
	// OnSpill observes each spill: the record count and byte total of
	// the buffer just written. Callers attach their spill counters and
	// heap-accounting resets here.
	OnSpill func(records int, bytes int64)
}

// RunBuilder accumulates typed records in memory and spills them as
// sorted run files when its spill policy (byte threshold or memory
// budget) triggers. It is HAMR's reduce accumulator's builder: that
// buffer usually never spills, and its reducer reads the records as the
// typed values they arrived as; records that always reach a run file
// belong in a SortBuffer.
//
// Records buffer in chunks drawn from the configured ChunkList, so the
// buffer never grows by copying. A spill stably sorts each chunk and
// merges the chunks into the run, ties going to the earlier chunk: the
// run holds exactly what one stable sort of the whole buffer would, and
// the chunks go back to the list. It is not safe for concurrent use;
// callers that share one builder across goroutines must serialize access.
type RunBuilder[T any] struct {
	cfg     BuilderConfig[T]
	chunks  [][]T // in arrival order; only the last one has room
	records int   // buffered records, across chunks
	bytes   int64
	count   int64
	runs    []string
	nextRun int
}

// NewRunBuilder returns an empty builder.
func NewRunBuilder[T any](cfg BuilderConfig[T]) *RunBuilder[T] {
	if cfg.Chunks == nil {
		cfg.Chunks = NewChunkList[T](DefaultChunkLen)
	}
	return &RunBuilder[T]{cfg: cfg}
}

// Add ingests one record of the given accounted size, spilling first
// (Budget) or after (Threshold) according to the configured policy.
func (b *RunBuilder[T]) Add(rec T, size int64) error {
	if b.cfg.Budget != nil && !b.cfg.Budget.Reserve(size) {
		if b.records > 0 {
			if err := b.Spill(); err != nil {
				return err
			}
		}
		// After spilling (or when nothing could be spilled) the record
		// must be admitted regardless, or the job cannot progress.
		b.cfg.Budget.ForceReserve(size)
	}
	n := len(b.chunks)
	if n == 0 || len(b.chunks[n-1]) == cap(b.chunks[n-1]) {
		b.chunks = append(b.chunks, b.cfg.Chunks.Get())
		n++
	}
	b.chunks[n-1] = append(b.chunks[n-1], rec)
	b.records++
	b.bytes += size
	b.count++
	if b.cfg.Threshold > 0 && b.bytes >= b.cfg.Threshold {
		return b.Spill()
	}
	return nil
}

// Spill writes the buffered records as the next run file, sorted and
// stable in arrival order, and returns the chunks to the list. An empty
// buffer is a no-op.
func (b *RunBuilder[T]) Spill() error {
	if b.records == 0 {
		return nil
	}
	if b.cfg.Disk == nil {
		return ErrNoDisk
	}
	name := b.cfg.RunName(b.nextRun)
	if err := writeRun(b.cfg.Disk, name, b.cfg.Format, b.sorted(), b.cfg.Cmp); err != nil {
		return err
	}
	b.nextRun++
	b.runs = append(b.runs, name)
	if b.cfg.OnSpill != nil {
		b.cfg.OnSpill(b.records, b.bytes)
	}
	if b.cfg.Budget != nil {
		b.cfg.Budget.Release(b.bytes)
	}
	for _, c := range b.chunks {
		b.cfg.Chunks.Put(c)
	}
	clear(b.chunks)
	b.chunks, b.records, b.bytes = b.chunks[:0], 0, 0
	return nil
}

// sorted stably sorts each buffered chunk and returns them, in arrival
// order, as merge sources.
func (b *RunBuilder[T]) sorted() []Source[T] {
	sources := make([]Source[T], len(b.chunks))
	for i, c := range b.chunks {
		SortStable(c, b.cfg.Cmp)
		sources[i] = SliceSource(c)
	}
	return sources
}

// Count returns the total records ingested since the builder was
// created (spilled and buffered).
func (b *RunBuilder[T]) Count() int64 { return b.count }

// BufferedBytes returns the accounted size of the in-memory buffer.
func (b *RunBuilder[T]) BufferedBytes() int64 { return b.bytes }

// Runs returns the names of the spilled run files, in spill order. The
// returned slice is owned by the builder.
func (b *RunBuilder[T]) Runs() []string { return b.runs }

// Drain detaches and returns the builder's state — the buffered chunks,
// each stably sorted, in arrival order; their accounted bytes; and the
// spilled run names — leaving the builder empty for further Adds. Merging
// the runs in order and then the chunks in order, ties to the earlier
// source, yields every record in key order and each key's records in
// arrival order. The caller owns what is returned: it removes the runs,
// puts each chunk back on the builder's ChunkList once it is done reading
// it, and releases bytes to the Budget.
func (b *RunBuilder[T]) Drain() (chunks [][]T, bytes int64, runs []string) {
	for _, c := range b.chunks {
		SortStable(c, b.cfg.Cmp)
	}
	chunks, bytes, runs = b.chunks, b.bytes, b.runs
	b.chunks, b.records, b.bytes, b.runs = nil, 0, 0, nil
	return chunks, bytes, runs
}
