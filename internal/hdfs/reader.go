package hdfs

import (
	"fmt"
	"io"

	"github.com/hamr-go/hamr/internal/transport"
)

// readAhead is the unit in which a reader moves the bytes of a block it
// follows a line into: Hadoop's default io.file.buffer.size.
const readAhead = 4 << 10

// fileReader fetches the bytes [pos, limit) of a file for a LineIterator,
// as observed from node at, one block at a time and only as far as the
// iterator reads.
//
// A block that starts before own is fetched whole through readBlock when
// the stream reaches it, so it fails over and is traced like any block
// read. A block that starts at or after own is slack — a split only follows
// its last line into it — and moves as a prefix, readAhead bytes at a time
// from an open replica, with the disk, the fabric and the byte counters
// charged for those bytes alone.
type fileReader struct {
	fs     *FileSystem
	at     transport.NodeID
	blocks []Block
	idx    int   // block holding pos
	pos    int64 // file offset of the next byte to fetch
	own    int64
	limit  int64

	// The open replica of slack block idx. cand counts the candidates
	// tried so far; a replica that fails mid-block is replaced by the next
	// one, positioned where the failed one stopped.
	rep  io.ReadSeekCloser
	src  transport.NodeID
	cand int
	buf  []byte
}

// closeReplica releases the open replica, if any.
func (r *fileReader) closeReplica() {
	if r.rep != nil {
		_ = r.rep.Close() // read-only handle
		r.rep = nil
	}
}

// fetch returns the next stretch of the file: the rest of an own block or
// one read-ahead unit of a slack block. own says the stretch is part of a
// block fetch read into a slice of its own, which the reader neither keeps
// nor writes again; a slack stretch is r.buf, which the next fetch
// overwrites.
func (r *fileReader) fetch() (data []byte, own bool, err error) {
	if r.pos >= r.limit {
		r.closeReplica()
		return nil, false, io.EOF
	}
	b := r.blocks[r.idx]
	off := r.pos - b.Offset
	own = b.Offset < r.own
	if own {
		whole, err := r.fs.readBlock(b, r.at, make([]byte, b.Size))
		if err != nil {
			return nil, false, err
		}
		data = whole[off:]
	} else {
		n := min(readAhead, b.Size-off)
		data, err = r.fs.traced(b, r.at, func() ([]byte, error) { return r.readSlack(b, off, n) })
		if err != nil {
			return nil, false, err
		}
	}
	data = data[:min(int64(len(data)), r.limit-r.pos)]
	r.pos += int64(len(data))
	if r.pos == b.Offset+b.Size {
		r.closeReplica()
		r.idx, r.cand = r.idx+1, 0
	}
	return data, own, nil
}

// readSlack reads bytes [off, off+n) of slack block b from its open
// replica, opening the first live full-length candidate when there is none
// and failing over as readReplicas does: a dead, missing, truncated
// or erroring replica yields to the next candidate, and a read that did
// not succeed on its first choice counts in hdfs.failover.reads.
func (r *fileReader) readSlack(b Block, off, n int64) ([]byte, error) {
	if r.buf == nil {
		r.buf = make([]byte, readAhead)
	}
	cands := candidates(b, r.at)
	var lastErr error
	for {
		if r.rep == nil {
			if r.cand == len(cands) {
				return nil, fmt.Errorf("hdfs: block %s: no readable replica: %w", b.ID, lastErr)
			}
			r.src = cands[r.cand]
			r.cand++
			f, err := r.fs.openReplica(r.src, b, off)
			if err != nil {
				lastErr = err
				continue
			}
			r.rep = f
		}
		if _, err := io.ReadFull(r.rep, r.buf[:n]); err != nil {
			lastErr = fmt.Errorf("hdfs: read block %s on node %d: %w", b.ID, r.src, err)
			r.closeReplica()
			continue
		}
		if lastErr != nil {
			r.fs.mFailover.Inc()
		}
		r.fs.served(r.src, r.at, n)
		return r.buf[:n], nil
	}
}

// openReplica opens one replica of a block positioned at off, refusing a
// replica that is down or not the block's full length (a truncated block
// is as bad as a missing one).
func (fs *FileSystem) openReplica(src transport.NodeID, b Block, off int64) (io.ReadSeekCloser, error) {
	if err := fs.faults.ReplicaDown(int(src), b.ID); err != nil {
		return nil, err
	}
	f, err := fs.disks[src].Open(blockName(b.ID))
	if err != nil {
		return nil, fmt.Errorf("hdfs: open block %s on node %d: %w", b.ID, src, err)
	}
	if size, err := fs.disks[src].Size(blockName(b.ID)); err != nil || size != b.Size {
		_ = f.Close()
		return nil, fmt.Errorf("hdfs: block %s on node %d truncated: %d of %d bytes", b.ID, src, size, b.Size)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("hdfs: seek block %s on node %d: %w", b.ID, src, err)
	}
	return f, nil
}
