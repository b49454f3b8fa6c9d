// Package storage provides the local-disk substrate used by both engines:
// an in-memory disk, a fault-injecting wrapper, and a cost-model wrapper
// that charges seek latency and throughput-proportional delays so a
// scaled-down single-machine run preserves the relative cost of disk IO on
// a commodity cluster (SATA-III in the paper's Table 1).
//
// The package also provides length-prefixed record files used for map-side
// spills, shuffle segments and HDFS block payloads.
package storage

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/vtime"
)

// Disk abstracts a node-local disk. Implementations must be safe for
// concurrent use by multiple tasks on the same node.
type Disk interface {
	// Create opens a new file for writing, truncating any existing file
	// with the same name.
	Create(name string) (io.WriteCloser, error)
	// Open opens an existing file for reading. Seek positions the open
	// file without reading: the bytes skipped are neither counted nor
	// charged, and the move itself is covered by what Open cost.
	Open(name string) (io.ReadSeekCloser, error)
	// Remove deletes a file. Removing a missing file is an error.
	Remove(name string) error
	// Size returns the byte size of a file.
	Size(name string) (int64, error)
	// List returns the names of all files with the given prefix, sorted.
	List(prefix string) []string
}

// ErrNotExist is returned when a named file is missing.
type ErrNotExist struct{ Name string }

func (e *ErrNotExist) Error() string { return "storage: file does not exist: " + e.Name }

// ErrDiskFull is returned by writes that exceed a disk's capacity.
type ErrDiskFull struct{ Name string }

func (e *ErrDiskFull) Error() string { return "storage: disk full writing " + e.Name }

// MemDisk is an in-memory Disk. The zero value is not usable; use
// NewMemDisk. Capacity limits (bytes) support disk-full failure injection;
// capacity <= 0 means unlimited.
//
// A file is a list of pages drawn from free lists the disk owns, one per
// size class, so writing a file costs the bytes it stores and removing one
// makes its pages available to the next writer. Page ownership: a writer
// is the only holder of its pages until Close publishes the file; from
// then on the pages are immutable and shared by the directory entry and
// every open reader, each holding one reference. Remove and overwrite drop
// the directory's reference, a reader's Close drops the reader's; the last
// one out returns the pages. A reader (or writer) that is never closed
// leaves its pages to the GC, and live on the page lists.
type MemDisk struct {
	mu       sync.Mutex
	files    map[string]*memFile
	used     int64
	capacity int64
	pages    [pageClasses]*par.List[[]byte] // free pages, by size class
}

// Pages come in power-of-two size classes from minPage to maxPage. A
// file's first page is sized to the write that needs it and later pages
// double up to maxPage, so a 2 KiB shuffle segment pins 2 KiB, not 64.
const (
	minPageShift = 9 // 512 B
	maxPageShift = 16
	minPage      = 1 << minPageShift
	maxPage      = 1 << maxPageShift
	pageClasses  = maxPageShift - minPageShift + 1
)

// PageStats is the page ledger summed over the size classes, in pages
// (MadeBytes: the bytes of the pages made). Made == Live + Free always
// holds; Made == Peak says the free list is bounded by the disk's own
// high-water mark.
type PageStats struct {
	Made, Live, Free, Peak int
	MadeBytes              int64
}

// PageStats returns the current page ledger.
func (d *MemDisk) PageStats() PageStats {
	var st PageStats
	for c, l := range d.pages {
		s := l.Stats()
		st.Made += s.Made
		st.Live += s.Live
		st.Free += s.Free
		st.Peak += s.Peak
		st.MadeBytes += int64(s.Made) * int64(minPage<<c)
	}
	return st
}

// Buffers names the disk's page lists, one per size class.
func (d *MemDisk) Buffers() par.Buffers {
	b := par.Buffers{}
	for c, l := range d.pages {
		b[fmt.Sprintf("pages-%d", minPage<<c)] = l.Stats
	}
	return b
}

// classFor returns the smallest size class holding n bytes (maxPage's
// class for anything larger).
func classFor(n int) int {
	c := 0
	for c < pageClasses-1 && minPage<<c < n {
		c++
	}
	return c
}

// putPages returns pages to their free lists.
func (d *MemDisk) putPages(pages [][]byte) {
	for _, p := range pages {
		d.pages[classFor(cap(p))].Put(p)
	}
}

// memFile is one published file: immutable pages plus the reference
// count (guarded by MemDisk.mu) that decides when they may be reused.
type memFile struct {
	pages [][]byte
	size  int64
	refs  int
}

// unref drops one reference. Caller holds d.mu.
func (d *MemDisk) unref(f *memFile) {
	if f.refs--; f.refs == 0 {
		d.putPages(f.pages)
		f.pages = nil
	}
}

// NewMemDisk returns an empty in-memory disk with the given byte capacity
// (<= 0 for unlimited).
func NewMemDisk(capacity int64) *MemDisk {
	d := &MemDisk{files: make(map[string]*memFile), capacity: capacity}
	for c := range d.pages {
		d.pages[c] = par.NewSlices[byte](minPage << c)
	}
	return d
}

// Used returns the number of bytes currently stored.
func (d *MemDisk) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

type memWriter struct {
	d      *MemDisk
	name   string
	pages  [][]byte
	cur    int // first page with room left (== len(pages) when none has)
	size   int64
	closed bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("storage: write to closed file %q", w.name)
	}
	d := w.d
	d.mu.Lock()
	if d.capacity > 0 && d.used+w.size+int64(len(p)) > d.capacity {
		d.mu.Unlock()
		return 0, &ErrDiskFull{Name: w.name}
	}
	// Take the pages this write needs beyond the room left in the last
	// one; the copy below then runs outside the disk's lock.
	need := len(p)
	if w.cur < len(w.pages) {
		need -= cap(w.pages[w.cur]) - len(w.pages[w.cur])
	}
	for need > 0 {
		// Size the page to what is left of this write, but while pages
		// are below maxPage never under twice the previous one: a file
		// written in small pieces still needs few pages, and the tail of
		// a large one is not rounded up to maxPage.
		c := classFor(need)
		if n := len(w.pages); n > 0 {
			if prev := classFor(cap(w.pages[n-1])); prev < pageClasses-1 {
				c = max(c, prev+1)
			}
		}
		pg := d.pages[c].Get()
		w.pages = append(w.pages, pg)
		need -= cap(pg)
	}
	d.mu.Unlock()

	n := len(p)
	for len(p) > 0 {
		pg := w.pages[w.cur]
		k := copy(pg[len(pg):cap(pg)], p)
		pg = pg[:len(pg)+k]
		w.pages[w.cur] = pg
		p = p[k:]
		if len(pg) == cap(pg) {
			w.cur++
		}
	}
	w.size += int64(n)
	return n, nil
}

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	d := w.d
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.files[w.name]
	var oldSize int64
	if old != nil {
		oldSize = old.size
	}
	if d.capacity > 0 && d.used-oldSize+w.size > d.capacity {
		d.putPages(w.pages)
		w.pages = nil
		return &ErrDiskFull{Name: w.name}
	}
	if old != nil {
		d.unref(old)
	}
	d.files[w.name] = &memFile{pages: w.pages, size: w.size, refs: 1}
	d.used += w.size - oldSize
	w.pages = nil
	return nil
}

// memReader streams a published file. Read fills p across page
// boundaries, so callers (CostDisk's per-call charges above all) see the
// same call sizes a flat byte slice would give them.
type memReader struct {
	d    *MemDisk
	f    *memFile // nil once closed
	page int
	off  int
	pos  int64 // file offset of the next Read; past the end after such a Seek
}

func (r *memReader) Read(p []byte) (int, error) {
	if r.f == nil {
		return 0, fmt.Errorf("storage: read from closed file")
	}
	pages := r.f.pages
	n := 0
	for r.page < len(pages) && n < len(p) {
		k := copy(p[n:], pages[r.page][r.off:])
		n += k
		if r.off += k; r.off == len(pages[r.page]) {
			r.page, r.off = r.page+1, 0
		}
	}
	if n == 0 && r.page == len(pages) {
		return 0, io.EOF
	}
	r.pos += int64(n)
	return n, nil
}

// Seek implements io.Seeker. As on a file, a position past the end is
// legal and the next Read reports io.EOF.
func (r *memReader) Seek(offset int64, whence int) (int64, error) {
	if r.f == nil {
		return 0, fmt.Errorf("storage: seek on closed file")
	}
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += r.pos
	case io.SeekEnd:
		offset += r.f.size
	default:
		return 0, fmt.Errorf("storage: seek: invalid whence %d", whence)
	}
	if offset < 0 {
		return 0, fmt.Errorf("storage: seek to negative offset %d", offset)
	}
	pages := r.f.pages
	r.pos, r.page, r.off = offset, 0, 0
	for r.page < len(pages) && offset >= int64(len(pages[r.page])) {
		offset -= int64(len(pages[r.page]))
		r.page++
	}
	if r.page < len(pages) {
		r.off = int(offset)
	}
	return r.pos, nil
}

func (r *memReader) Close() error {
	if r.f != nil {
		r.d.mu.Lock()
		r.d.unref(r.f)
		r.d.mu.Unlock()
		r.f = nil
	}
	return nil
}

// Create implements Disk.
func (d *MemDisk) Create(name string) (io.WriteCloser, error) {
	return &memWriter{d: d, name: name}, nil
}

// Open implements Disk.
func (d *MemDisk) Open(name string) (io.ReadSeekCloser, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, &ErrNotExist{Name: name}
	}
	f.refs++
	return &memReader{d: d, f: f}, nil
}

// Remove implements Disk.
func (d *MemDisk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return &ErrNotExist{Name: name}
	}
	d.used -= f.size
	delete(d.files, name)
	d.unref(f)
	return nil
}

// Size implements Disk.
func (d *MemDisk) Size(name string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return 0, &ErrNotExist{Name: name}
	}
	return f.size, nil
}

// List implements Disk.
func (d *MemDisk) List(prefix string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var names []string
	for name := range d.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// CostModel describes the performance of a modeled disk. A scaled-down
// run uses TimeScale < 1 to compress modeled delays while preserving
// their ratio to compute time.
type CostModel struct {
	// SeekLatency is charged once per Create/Open/Remove.
	SeekLatency time.Duration
	// ReadBytesPerSec and WriteBytesPerSec are streaming throughputs.
	ReadBytesPerSec  int64
	WriteBytesPerSec int64
	// TimeScale multiplies every modeled delay (0 treated as 1).
	TimeScale float64
	// Parallel is the number of concurrent IO streams the node's storage
	// sustains at full throughput (the paper's nodes had 5 local disks).
	// Further concurrent accessors queue, which is what makes heavy
	// spill/shuffle traffic expensive. 0 is treated as 1.
	Parallel int
}

// SATA3 is a cost model resembling the paper's SATA-III local disks.
func SATA3() CostModel {
	return CostModel{
		SeekLatency:      8 * time.Millisecond,
		ReadBytesPerSec:  150 << 20,
		WriteBytesPerSec: 120 << 20,
		TimeScale:        1,
	}
}

func (m CostModel) scale(d time.Duration) time.Duration {
	s := m.TimeScale
	if s == 0 {
		s = 1
	}
	return time.Duration(float64(d) * s)
}

func (m CostModel) readDelay(n int) time.Duration {
	if m.ReadBytesPerSec <= 0 {
		return 0
	}
	return m.scale(time.Duration(float64(n) / float64(m.ReadBytesPerSec) * float64(time.Second)))
}

func (m CostModel) writeDelay(n int) time.Duration {
	if m.WriteBytesPerSec <= 0 {
		return 0
	}
	return m.scale(time.Duration(float64(n) / float64(m.WriteBytesPerSec) * float64(time.Second)))
}

// CostDisk wraps a backing Disk and charges modeled delays plus metrics for
// every operation. Metrics recorded: disk.read.bytes, disk.write.bytes,
// disk.read.ops, disk.write.ops, disk.time (timer).
type CostDisk struct {
	backing Disk
	model   CostModel
	// Metric handles, resolved once: charge runs per Read and Write.
	mReadBytes, mWriteBytes, mReadOps, mWriteOps *metrics.Counter
	tTime                                        *metrics.Timer
	// slots serializes modeled delays so aggregate throughput cannot
	// exceed Parallel concurrent streams.
	slots chan struct{}
	// clock pays modeled delays; node attributes them (vtime.Driver when
	// the disk is not part of a cluster).
	clock vtime.Clock
	node  int
}

// NewCostDisk wraps backing with the given model, recording into reg
// (which may be nil for no metrics).
func NewCostDisk(backing Disk, model CostModel, reg *metrics.Registry) *CostDisk {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	par := model.Parallel
	if par <= 0 {
		par = 1
	}
	return &CostDisk{
		backing: backing,
		model:   model,

		mReadBytes:  reg.Counter("disk.read.bytes"),
		mWriteBytes: reg.Counter("disk.write.bytes"),
		mReadOps:    reg.Counter("disk.read.ops"),
		mWriteOps:   reg.Counter("disk.write.ops"),
		tTime:       reg.Timer("disk.time"),

		slots: make(chan struct{}, par),
		clock: vtime.Real(),
		node:  vtime.Driver,
	}
}

// SetClock routes modeled delays through clk, attributed to node's disk
// lane. The cluster wires every node disk here; the default is the real
// clock (plain sleeps).
func (d *CostDisk) SetClock(clk vtime.Clock, node int) {
	if clk != nil {
		d.clock, d.node = clk, node
	}
}

func (d *CostDisk) charge(dur time.Duration) {
	if dur <= 0 {
		return
	}
	d.tTime.Observe(dur)
	d.slots <- struct{}{}
	d.clock.Charge(d.node, vtime.Disk, dur)
	<-d.slots
}

type costWriter struct {
	io.WriteCloser
	d *CostDisk
}

func (w *costWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	if n > 0 {
		w.d.mWriteBytes.Add(int64(n))
		w.d.charge(w.d.model.writeDelay(n))
	}
	return n, err
}

// costReader charges what Read delivers. Seek is the backing reader's: the
// SeekLatency Open charged covers positioning the open file.
type costReader struct {
	io.ReadSeekCloser
	d *CostDisk
}

func (r *costReader) Read(p []byte) (int, error) {
	n, err := r.ReadSeekCloser.Read(p)
	if n > 0 {
		r.d.mReadBytes.Add(int64(n))
		r.d.charge(r.d.model.readDelay(n))
	}
	return n, err
}

// Create implements Disk.
func (d *CostDisk) Create(name string) (io.WriteCloser, error) {
	d.mWriteOps.Inc()
	d.charge(d.model.scale(d.model.SeekLatency))
	w, err := d.backing.Create(name)
	if err != nil {
		return nil, err
	}
	return &costWriter{WriteCloser: w, d: d}, nil
}

// Open implements Disk.
func (d *CostDisk) Open(name string) (io.ReadSeekCloser, error) {
	d.mReadOps.Inc()
	d.charge(d.model.scale(d.model.SeekLatency))
	r, err := d.backing.Open(name)
	if err != nil {
		return nil, err
	}
	return &costReader{ReadSeekCloser: r, d: d}, nil
}

// Remove implements Disk.
func (d *CostDisk) Remove(name string) error {
	d.charge(d.model.scale(d.model.SeekLatency))
	return d.backing.Remove(name)
}

// Size implements Disk.
func (d *CostDisk) Size(name string) (int64, error) { return d.backing.Size(name) }

// List implements Disk.
func (d *CostDisk) List(prefix string) []string { return d.backing.List(prefix) }

var (
	_ Disk = (*MemDisk)(nil)
	_ Disk = (*CostDisk)(nil)
)
