package extsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"

	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/storage"
)

// SortBlockSize is the unit a SortBuffer's storage grows by, and the
// capacity of the slices a SortBufferConfig.Blocks list holds. A buffer
// that is handed k bytes holds at most k plus one block, so a task that
// emits little holds little whatever its spill threshold is. An index
// word's low sortOffsetBits hold a record's offset in its block.
const (
	sortOffsetBits = 14
	SortBlockSize  = 1 << sortOffsetBits
)

// maxSortBlocks is the most blocks the high bits of an index word can
// number: 4 GiB of standard blocks.
var maxSortBlocks = 1 << (32 - sortOffsetBits)

// errSortBufferFull is returned by an Add that would need a block past
// maxSortBlocks since the last spill.
var errSortBufferFull = errors.New("extsort: sort buffer full: its index cannot number another block")

// Combiner folds the records of a spill into the records its run holds
// (the map-side combiner). A spill calls Begin with the run's writer, Add
// with each record in run order, lent until Add returns, and End once,
// after the last record or after the first error. End flushes what the
// combiner still holds only when flush is true, and either way leaves it
// ready for the next Begin.
type Combiner interface {
	Begin(write func(key, value []byte) error)
	Add(key, value []byte) error
	End(flush bool) error
}

// SortBufferConfig configures a SortBuffer. Disk, RunName, Index and
// Blocks are required.
type SortBufferConfig struct {
	Disk storage.Disk
	// RunName names the i-th spilled run (i counts from 0).
	RunName func(i int) string
	// Prefix is the number of leading key bytes that hold a record's
	// partition: the runs are sectioned by it (see CreateSectioned).
	Prefix int
	// Threshold, when > 0, spills after an Add brings the accounted bytes
	// to Threshold or beyond — Hadoop's io.sort.mb semantics, where the
	// record that crossed the line is included in the spill.
	Threshold int64
	// Index is the free list each spill borrows its sort index from and
	// returns it to once the run is written. Buffers that spill one after
	// another share one index by sharing the list. Required.
	Index *par.List[[]uint32]
	// Blocks is the free list the buffer takes its standard blocks from,
	// slices of SortBlockSize bytes, and Release returns them to. Buffers
	// that share the list share their blocks: what one spill sends home is
	// what the next block any of them needs is taken from. Required.
	Blocks *par.List[[]byte]
	// Combine, when non-nil, folds every spill: what it writes is the run.
	// OnSpill's accounting is of the records added, not the records written.
	Combine Combiner
	// OnSpill observes each spill, its run already in Runs: the number of
	// records added since the last one and their accounted bytes.
	OnSpill func(records int, bytes int64)
}

// SortBuffer is the run builder for records that are already bytes —
// Hadoop's kvbuffer. Add copies an encoded key and value into storage the
// buffer owns; Spill sorts an index over them and streams them to a
// sectioned run file as they are. Runs are ordered by bytes.Compare on the
// keys, equal keys in arrival order: the order MergeToFactor and MergeRuns
// keep.
//
// Between spills the buffer holds its records and nothing else: a list of
// pointer-free blocks of SortBlockSize (a record too large for one gets a
// block of its own size). A record sits in its block framed as in a run
// file — uvarint key length, key, uvarint value length, value. A spill
// walks that framing to build its index, one 32-bit word per record:
// block number in the high bits, offset in the low sortOffsetBits (a
// standard block is that long, and an outsized one holds one record, at
// offset 0). The index is scratch from the configured free list and goes
// back to it when the run is written. The standard blocks come from the
// configured block list as records arrive and go back to it with them:
// when their spill is written, or on Release. A buffer holds blocks only
// while it holds records. It is not safe for concurrent use.
type SortBuffer struct {
	cfg    SortBufferConfig
	blocks [][]byte // in fill order; the last is being filled
	n      int      // records buffered
	bytes  int64
	runs   []Run
}

// NewSortBuffer returns an empty buffer.
func NewSortBuffer(cfg SortBufferConfig) *SortBuffer {
	return &SortBuffer{cfg: cfg}
}

// Add buffers one record of the given accounted size and spills when that
// brings the buffer to its threshold. key and value are copied.
func (b *SortBuffer) Add(key, value []byte, size int64) error {
	// Room for the two length prefixes at their longest: a bound, not the
	// exact frame size, so a block may close a few bytes early.
	i := b.place(len(key) + len(value) + 2*binary.MaxVarintLen32)
	if i < 0 {
		return errSortBufferFull
	}
	blk := b.blocks[i]
	blk = binary.AppendUvarint(blk, uint64(len(key)))
	blk = append(blk, key...)
	blk = binary.AppendUvarint(blk, uint64(len(value)))
	b.blocks[i] = append(blk, value...)
	b.n++
	b.bytes += size
	if b.cfg.Threshold > 0 && b.bytes >= b.cfg.Threshold {
		return b.Spill()
	}
	return nil
}

// place returns the number of a block with room for n more bytes: the one
// being filled, else a new last one, taken from the block list or, when n
// is more than a standard block holds, made to measure; -1 if that would
// be one block too many. Records therefore land at rising (block, offset)
// positions, which is what lets a spill tell arrival order from an index
// word. A block made for n > SortBlockSize is exactly that large, so the
// bytes it has left after its record are fewer than the 2*MaxVarintLen32
// any next record needs.
func (b *SortBuffer) place(n int) int {
	last := len(b.blocks) - 1
	if last >= 0 && cap(b.blocks[last])-len(b.blocks[last]) >= n {
		return last
	}
	if len(b.blocks) == maxSortBlocks {
		return -1
	}
	if n > SortBlockSize {
		b.blocks = append(b.blocks, make([]byte, 0, n))
	} else {
		b.blocks = append(b.blocks, b.cfg.Blocks.Get())
	}
	return last + 1
}

// appendIndex appends one index word per buffered record to index, in
// arrival order: a walk over each block's framing, blocks in order.
func (b *SortBuffer) appendIndex(index []uint32) []uint32 {
	for i, blk := range b.blocks {
		for off := 0; off < len(blk); {
			index = append(index, uint32(i)<<sortOffsetBits|uint32(off))
			klen, n := binary.Uvarint(blk[off:])
			off += n + int(klen)
			vlen, n := binary.Uvarint(blk[off:])
			off += n + int(vlen)
		}
	}
	return index
}

// key returns the key of the record the index word e points at, and the
// rest of its block from the key's end on.
func (b *SortBuffer) key(e uint32) (key, rest []byte) {
	p := b.blocks[e>>sortOffsetBits][e&(SortBlockSize-1):]
	klen, n := binary.Uvarint(p)
	end := n + int(klen)
	return p[n:end], p[end:]
}

// record returns the key and value the index word e points at.
func (b *SortBuffer) record(e uint32) (key, value []byte) {
	key, p := b.key(e)
	vlen, n := binary.Uvarint(p)
	return key, p[n : n+int(vlen)]
}

// Spill sorts the buffered records, passes them through Combine if there
// is one, and writes the result as the next run file. An empty buffer is
// a no-op.
func (b *SortBuffer) Spill() error {
	if b.n == 0 {
		return nil
	}
	index := b.cfg.Index.Get()
	if cap(index) < b.n {
		// Room for an eighth more records than this spill holds: the
		// spills that share a list hold about as many records each, and an
		// index sized to this one exactly would be traded in by the next
		// that holds a few more.
		index = make([]uint32, 0, b.n+b.n/8)
	}
	index = b.appendIndex(index)
	defer b.cfg.Index.Put(index)
	// By key only: records with one key come out next to each other in any
	// order, which a sort that sees them as equal gets through faster than
	// one made to tell them apart. sorted puts each group back in arrival
	// order, so the run is the stable sort of the buffer.
	slices.SortFunc(index, func(x, y uint32) int {
		kx, _ := b.key(x)
		ky, _ := b.key(y)
		return bytes.Compare(kx, ky)
	})
	w, err := CreateSectioned(b.cfg.Disk, b.cfg.RunName(len(b.runs)), b.cfg.Prefix)
	if err != nil {
		return err
	}
	if c := b.cfg.Combine; c != nil {
		c.Begin(w.Write)
		err = b.sorted(index, c.Add)
		if cerr := c.End(err == nil); err == nil {
			err = cerr
		}
	} else {
		err = b.sorted(index, w.Write)
	}
	run, cerr := w.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	b.runs = append(b.runs, run)
	if b.cfg.OnSpill != nil {
		b.cfg.OnSpill(b.n, b.bytes)
	}
	// The blocks go home with their records: between the spills of one
	// task its node's other tasks may fill them.
	b.Release()
	return nil
}

// sorted passes the records of the key-sorted index to emit, a key group
// at a time in arrival order: index words rise with arrival, so sorting a
// group's words as integers restores it.
func (b *SortBuffer) sorted(index []uint32, emit func(key, value []byte) error) error {
	for i := 0; i < len(index); {
		key, _ := b.key(index[i])
		j := i + 1
		for ; j < len(index); j++ {
			if k, _ := b.key(index[j]); !bytes.Equal(k, key) {
				break
			}
		}
		group := index[i:j]
		slices.Sort(group)
		i = j
		for _, e := range group {
			if err := emit(b.record(e)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Release drops the records the buffer holds and returns their standard
// blocks to the block list; an outsized block is left to the garbage
// collector. Every spill ends with it; call it when the buffer's task has
// failed with records unspilled. It is idempotent, and a buffer added to
// after it takes blocks again.
func (b *SortBuffer) Release() {
	for _, blk := range b.blocks {
		if cap(blk) == SortBlockSize {
			b.cfg.Blocks.Put(blk)
		}
	}
	clear(b.blocks)
	b.blocks = b.blocks[:0]
	b.n, b.bytes = 0, 0
}

// Runs returns the spilled runs, in spill order. The returned slice is
// owned by the buffer.
func (b *SortBuffer) Runs() []Run { return b.runs }
