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

	// block holds the last own block fetched, in a buffer from the
	// filesystem's read list, until the next fetch or release gives it
	// back.
	block []byte

	// The replicas of slack block idx, kept open across read-ahead units.
	cur replicaCursor
	buf []byte
}

// closeReplica releases the slack block's cursor.
func (r *fileReader) closeReplica() {
	r.cur.close()
	r.cur = replicaCursor{}
}

// putBlock gives the own block's buffer, if the reader holds one, back to
// the read list.
func (r *fileReader) putBlock() {
	if r.block != nil {
		r.fs.readBufs.Put(r.block)
		r.block = nil
	}
}

// release gives back everything the reader holds: the slack block's
// replica and the own block's buffer. It is idempotent.
func (r *fileReader) release() {
	r.closeReplica()
	r.putBlock()
}

// fetch returns the next stretch of the file: the rest of an own block or
// one read-ahead unit of a slack block. Either way the stretch before it is
// done with: the previous own block goes back to the read list here, and a
// slack stretch is r.buf, which the next fetch overwrites. own says the
// stretch is part of an own block, read into r.block, a buffer nothing
// writes until that block goes back.
func (r *fileReader) fetch() (data []byte, own bool, err error) {
	r.putBlock()
	if r.pos >= r.limit {
		r.closeReplica()
		return nil, false, io.EOF
	}
	b := r.blocks[r.idx]
	off := r.pos - b.Offset
	own = b.Offset < r.own
	if own {
		r.block = r.fs.readBufs.Get()
		if int64(cap(r.block)) < b.Size {
			// Sized to the filesystem's blocks, so a buffer first made
			// for a short last block serves a whole one later.
			r.block = make([]byte, 0, r.fs.blockSize)
		}
		whole, err := r.fs.readBlock(b, r.at, r.block[:b.Size])
		if err != nil {
			return nil, false, err
		}
		data = whole[off:]
	} else {
		if r.buf == nil {
			r.buf = make([]byte, readAhead)
		}
		if r.cur.fs == nil {
			r.cur = r.fs.cursor(b, r.at)
		}
		unit := r.buf[:min(readAhead, b.Size-off)]
		data, err = r.fs.traced(b, r.at, func() ([]byte, error) { return r.cur.read(unit, off) })
		if err != nil {
			return nil, false, err
		}
	}
	data = data[:min(int64(len(data)), r.limit-r.pos)]
	r.pos += int64(len(data))
	if r.pos == b.Offset+b.Size {
		r.closeReplica()
		r.idx++
	}
	return data, own, nil
}

// replicaCursor reads one block as observed from node at, walking its
// candidates in order and keeping the replica it last read from open: a
// slack block keeps one across read-ahead units, an own block takes one
// per fetch.
type replicaCursor struct {
	fs    *FileSystem
	b     Block
	at    transport.NodeID
	cands []transport.NodeID
	next  int // index of the next candidate to open
	rep   io.ReadSeekCloser
	src   transport.NodeID
}

// cursor starts a cursor over block b's candidates as seen from node at.
func (fs *FileSystem) cursor(b Block, at transport.NodeID) replicaCursor {
	return replicaCursor{fs: fs, b: b, at: at, cands: candidates(b, at)}
}

// read fills dst with the block's bytes from off and returns it, or nil on
// failure. The open replica is read where it stands; when there is none,
// the next live full-length candidate is opened at off. A dead, missing,
// truncated or erroring replica yields to the next candidate, a read that
// did not succeed on its first choice counts in hdfs.failover.reads, and
// the bytes delivered are accounted by served.
func (c *replicaCursor) read(dst []byte, off int64) ([]byte, error) {
	var lastErr error
	for {
		if c.rep == nil {
			if c.next == len(c.cands) {
				return nil, fmt.Errorf("hdfs: block %s: no readable replica: %w", c.b.ID, lastErr)
			}
			c.src = c.cands[c.next]
			c.next++
			f, err := c.fs.openReplica(c.src, c.b, off)
			if err != nil {
				lastErr = err
				continue
			}
			c.rep = f
		}
		if _, err := io.ReadFull(c.rep, dst); err != nil {
			lastErr = fmt.Errorf("hdfs: read block %s on node %d: %w", c.b.ID, c.src, err)
			c.close()
			continue
		}
		if lastErr != nil {
			c.fs.mFailover.Inc()
		}
		c.fs.served(c.src, c.at, int64(len(dst)))
		return dst, nil
	}
}

// close releases the open replica, if any.
func (c *replicaCursor) close() {
	if c.rep != nil {
		_ = c.rep.Close() // read-only handle
		c.rep = nil
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
