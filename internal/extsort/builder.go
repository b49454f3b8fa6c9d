package extsort

import "github.com/hamr-go/hamr/internal/storage"

// BuilderConfig configures a RunBuilder. Cmp, Format, and RunName are
// required when the builder can spill; Disk may be nil for callers that
// only ever sort in memory (spilling then fails with ErrNoDisk).
type BuilderConfig[T any] struct {
	Cmp    Compare[T]
	Format Format[T]
	Disk   storage.Disk
	// RunName names the i-th spilled run (i counts from 0).
	RunName func(i int) string
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
// buffer usually never spills and is handed to the reducer as a slice,
// so it stays typed; records that always reach a run file belong in a
// SortBuffer. It is not safe for concurrent use; callers that share one
// builder across goroutines must serialize access.
type RunBuilder[T any] struct {
	cfg     BuilderConfig[T]
	buf     []T
	bytes   int64
	count   int64
	runs    []string
	nextRun int
}

// NewRunBuilder returns an empty builder.
func NewRunBuilder[T any](cfg BuilderConfig[T]) *RunBuilder[T] {
	return &RunBuilder[T]{cfg: cfg}
}

// Add ingests one record of the given accounted size, spilling first
// (Budget) or after (Threshold) according to the configured policy.
func (b *RunBuilder[T]) Add(rec T, size int64) error {
	if b.cfg.Budget != nil && !b.cfg.Budget.Reserve(size) {
		if len(b.buf) > 0 {
			if err := b.Spill(); err != nil {
				return err
			}
		}
		// After spilling (or when nothing could be spilled) the record
		// must be admitted regardless, or the job cannot progress.
		b.cfg.Budget.ForceReserve(size)
	}
	if len(b.buf) == cap(b.buf) {
		b.growBuf()
	}
	b.buf = append(b.buf, rec)
	b.bytes += size
	b.count++
	if b.cfg.Threshold > 0 && b.bytes >= b.cfg.Threshold {
		return b.Spill()
	}
	return nil
}

// growBuf doubles the full buffer. (append's own growth past 256
// elements is 1.25x, which allocates about five times the final buffer on
// the way to it; doubling allocates twice.)
func (b *RunBuilder[T]) growBuf() {
	nb := make([]T, len(b.buf), max(2*cap(b.buf), 256))
	copy(nb, b.buf)
	b.buf = nb
}

// Spill stably sorts the buffered records and writes them as the next
// run file. An empty buffer is a no-op.
func (b *RunBuilder[T]) Spill() error {
	if len(b.buf) == 0 {
		return nil
	}
	if b.cfg.Disk == nil {
		return ErrNoDisk
	}
	SortStable(b.buf, b.cfg.Cmp)
	name := b.cfg.RunName(b.nextRun)
	if err := writeRun(b.cfg.Disk, name, b.cfg.Format, b.buf); err != nil {
		return err
	}
	b.nextRun++
	b.runs = append(b.runs, name)
	if b.cfg.OnSpill != nil {
		b.cfg.OnSpill(len(b.buf), b.bytes)
	}
	if b.cfg.Budget != nil {
		b.cfg.Budget.Release(b.bytes)
	}
	clear(b.buf) // drop value references so spilled data is collectable
	b.buf = b.buf[:0]
	b.bytes = 0
	return nil
}

// Count returns the total records ingested since the builder was
// created (spilled and buffered).
func (b *RunBuilder[T]) Count() int64 { return b.count }

// BufferedBytes returns the accounted size of the in-memory buffer.
func (b *RunBuilder[T]) BufferedBytes() int64 { return b.bytes }

// Runs returns the names of the spilled run files, in spill order. The
// returned slice is owned by the builder.
func (b *RunBuilder[T]) Runs() []string { return b.runs }

// Drain detaches and returns the builder's state — the unsorted
// in-memory buffer, its accounted bytes, and the spilled run names —
// leaving the builder empty for further Adds. The caller owns the
// returned runs (including their eventual removal) and is responsible
// for releasing bytes to the Budget once done with the buffer.
func (b *RunBuilder[T]) Drain() (buf []T, bytes int64, runs []string) {
	buf, bytes, runs = b.buf, b.bytes, b.runs
	b.buf, b.bytes, b.runs = nil, 0, nil
	return buf, bytes, runs
}
