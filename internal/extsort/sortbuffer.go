package extsort

import (
	"bytes"
	"encoding/binary"
	"slices"

	"github.com/hamr-go/hamr/internal/storage"
)

// sortBlockSize is the unit a SortBuffer's storage grows by. A buffer
// that is handed k bytes holds at most k plus one block, so a task that
// emits little allocates little whatever its spill threshold is.
const sortBlockSize = 16 << 10

// CombineFunc folds one group of a spill — every buffered record whose
// key is key, values in arrival order — into the records it passes to
// emit, which the run then holds in the group's place. key and values
// point into the buffer and emit copies what it is given: none of the
// slices may be kept past the call.
type CombineFunc func(key []byte, values [][]byte, emit func(key, value []byte) error) error

// SortBufferConfig configures a SortBuffer. Disk and RunName are required.
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
	// Combine, when non-nil, is called once per key group of every spill,
	// in key order, and what it emits is the run (the map-side combiner).
	// OnSpill's accounting is of the records added, not the records emitted.
	Combine CombineFunc
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
// Storage is a list of pointer-free blocks of sortBlockSize (a record too
// large for one gets a block of its own size). A record sits in its block
// framed as in a run file — uvarint key length, key, uvarint value length,
// value — and the index holds one word per record: block number in the
// high half, offset in the low. Blocks and index are reused from one spill
// to the next and are garbage once the buffer is; nothing is shared with
// another buffer. It is not safe for concurrent use.
type SortBuffer struct {
	cfg    SortBufferConfig
	blocks [][]byte // len = bytes filled
	cur    int      // the block being filled; those after it are empty
	index  []uint64
	bytes  int64
	runs   []Run
	values [][]byte // Combine's argument, reused
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
	blk := b.blocks[i]
	off := len(blk)
	blk = binary.AppendUvarint(blk, uint64(len(key)))
	blk = append(blk, key...)
	blk = binary.AppendUvarint(blk, uint64(len(value)))
	b.blocks[i] = append(blk, value...)
	if len(b.index) == cap(b.index) {
		// Doubling allocates twice the final index on the way to it;
		// append's own growth past 256 elements, about five times.
		b.index = slices.Grow(b.index, max(len(b.index), 256))
	}
	b.index = append(b.index, uint64(i)<<32|uint64(off))
	b.bytes += size
	if b.cfg.Threshold > 0 && b.bytes >= b.cfg.Threshold {
		return b.Spill()
	}
	return nil
}

// place returns the number of a block with room for n more bytes: the one
// being filled, else the next, which is made when there is none or it is
// too small. Records therefore land at rising (block, offset) positions,
// which is what lets a spill tell arrival order from an index word.
func (b *SortBuffer) place(n int) int {
	if b.cur < len(b.blocks) {
		if blk := b.blocks[b.cur]; cap(blk)-len(blk) >= n {
			return b.cur
		}
		b.cur++
	}
	if b.cur == len(b.blocks) || cap(b.blocks[b.cur]) < n {
		b.blocks = slices.Insert(b.blocks, b.cur, make([]byte, 0, max(n, sortBlockSize)))
	}
	return b.cur
}

// key returns the key of the record the index word e points at, and the
// rest of its block from the key's end on.
func (b *SortBuffer) key(e uint64) (key, rest []byte) {
	p := b.blocks[e>>32][uint32(e):]
	klen, n := binary.Uvarint(p)
	end := n + int(klen)
	return p[n:end], p[end:]
}

// record returns the key and value the index word e points at.
func (b *SortBuffer) record(e uint64) (key, value []byte) {
	key, p := b.key(e)
	vlen, n := binary.Uvarint(p)
	return key, p[n : n+int(vlen)]
}

// Spill sorts the buffered records, folds each key group through Combine
// if there is one, and writes the result as the next run file. An empty
// buffer is a no-op.
func (b *SortBuffer) Spill() error {
	if len(b.index) == 0 {
		return nil
	}
	// By key only: records with one key come out next to each other in any
	// order, which a sort that sees them as equal gets through faster than
	// one made to tell them apart. groups puts each group back in arrival
	// order, so the run is the stable sort of the buffer.
	slices.SortFunc(b.index, func(x, y uint64) int {
		kx, _ := b.key(x)
		ky, _ := b.key(y)
		return bytes.Compare(kx, ky)
	})
	w, err := CreateSectioned(b.cfg.Disk, b.cfg.RunName(len(b.runs)), b.cfg.Prefix)
	if err != nil {
		return err
	}
	err = b.groups(w.Write)
	run, cerr := w.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	b.runs = append(b.runs, run)
	if b.cfg.OnSpill != nil {
		b.cfg.OnSpill(len(b.index), b.bytes)
	}
	// Keep the blocks for the next fill, except the outsized ones: one huge
	// record should not pin its block for the rest of the task.
	kept := b.blocks[:0]
	for _, blk := range b.blocks {
		if cap(blk) == sortBlockSize {
			kept = append(kept, blk[:0])
		}
	}
	clear(b.blocks[len(kept):])
	b.blocks, b.cur = kept, 0
	b.index = b.index[:0]
	b.bytes = 0
	return nil
}

// groups walks the key-sorted index a key group at a time: it restores the
// group's arrival order — index words rise with arrival — and passes its
// records to emit, through Combine if there is one.
func (b *SortBuffer) groups(emit func(key, value []byte) error) error {
	for i := 0; i < len(b.index); {
		key, _ := b.key(b.index[i])
		j := i + 1
		for ; j < len(b.index); j++ {
			if k, _ := b.key(b.index[j]); !bytes.Equal(k, key) {
				break
			}
		}
		group := b.index[i:j]
		slices.Sort(group)
		i = j
		if b.cfg.Combine == nil {
			for _, e := range group {
				if err := emit(b.record(e)); err != nil {
					return err
				}
			}
			continue
		}
		// The group was measured first, so the values slice grows to the
		// largest group in one step (append alone would allocate five
		// times that).
		if n := len(group); n > cap(b.values) {
			b.values = make([][]byte, 0, max(n, 2*cap(b.values)))
		}
		b.values = b.values[:0]
		for _, e := range group {
			_, v := b.record(e)
			b.values = append(b.values, v)
		}
		if err := b.cfg.Combine(key, b.values, emit); err != nil {
			return err
		}
	}
	return nil
}

// Runs returns the spilled runs, in spill order. The returned slice is
// owned by the buffer.
func (b *SortBuffer) Runs() []Run { return b.runs }
