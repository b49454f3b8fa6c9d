package hdfs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"unsafe"

	"github.com/hamr-go/hamr/internal/transport"
)

// Split is a contiguous byte range of a file processed by one task, with
// the nodes that hold it locally. Splits are block-aligned, like Hadoop's
// FileInputFormat.
type Split struct {
	File   string
	Offset int64
	Length int64
	Hosts  []transport.NodeID
}

// Splits returns one split per block of the file.
func (fs *FileSystem) Splits(name string) ([]Split, error) {
	blocks, err := fs.Blocks(name)
	if err != nil {
		return nil, err
	}
	splits := make([]Split, 0, len(blocks))
	for _, b := range blocks {
		splits = append(splits, Split{
			File:   name,
			Offset: b.Offset,
			Length: b.Size,
			Hosts:  append([]transport.NodeID(nil), b.Replicas...),
		})
	}
	return splits, nil
}

// SplitsGlob returns the splits of every file matching the prefix.
func (fs *FileSystem) SplitsGlob(prefix string) ([]Split, error) {
	var all []Split
	for _, name := range fs.List(prefix) {
		s, err := fs.Splits(name)
		if err != nil {
			return nil, err
		}
		all = append(all, s...)
	}
	return all, nil
}

// maxLine bounds how far past its end a split follows its last line.
const maxLine = 1 << 20

// LineIterator yields the lines belonging to a split using Hadoop's rule:
// a line belongs to the split in which it starts. The iterator therefore
// skips a leading partial line (unless the split starts at offset 0) and
// reads past the end of the split only to the end of the line that
// straddles the boundary.
//
// A line is valid until the next Next or Close, the way Hadoop's
// LineRecordReader reuses its Text. The iterator reads each own block into
// a buffer from the filesystem's read list and views it as a string once
// (blockString); every line that lies inside it is a substring of that
// view, and the buffer goes back to the list, to be overwritten by the
// next reader, when the iterator moves past the block or closes. A caller
// that keeps a line, or any part of it, past the record it is handed
// copies it (strings.Clone). Two kinds of line are copies already: one
// that spans two fetches (carried across in carry) and one read from
// slack, whose bytes the next fetch overwrites.
type LineIterator struct {
	src      *fileReader
	cur      string // fetched bytes not yet returned
	carry    []byte // the start of a line that runs into the next fetch
	consumed int64  // bytes consumed relative to split start
	limit    int64  // split length (stop once consumed > limit at line start)
	done     bool
	err      error
}

// blockString views b as a string without copying it. b must be an own
// block as fileReader.fetch returns it: a buffer read for this iterator
// alone, which nothing writes until the iterator gives it back to the read
// list, so the string's bytes hold still for as long as the view is used.
// This is the tree's one use of unsafe.
func blockString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// OpenLines returns a line iterator over the split as observed from node
// at. The split's blocks are read whole as the iterator reaches them; what
// follows is read only as far as the last line goes (see fileReader), and
// at most maxLine bytes. Close the iterator unless Next has reported the
// end: one left open keeps its block buffer out of the read list.
func (fs *FileSystem) OpenLines(sp Split, at transport.NodeID) (*LineIterator, error) {
	meta, err := fs.lookup(sp.File)
	if err != nil {
		return nil, err
	}
	if sp.Offset < 0 || sp.Offset > meta.size {
		return nil, fmt.Errorf("hdfs: offset %d out of range for %q (size %d)", sp.Offset, sp.File, meta.size)
	}
	end := min(sp.Offset+sp.Length, meta.size)
	src := &fileReader{
		fs: fs, at: at, blocks: meta.blocks,
		idx:   sort.Search(len(meta.blocks), func(i int) bool { return meta.blocks[i].Offset+meta.blocks[i].Size > sp.Offset }),
		pos:   sp.Offset,
		own:   end,
		limit: min(end+maxLine, meta.size),
	}
	it := &LineIterator{src: src, limit: sp.Length}
	if sp.Offset > 0 {
		// Skip the partial line carried over from the previous split.
		skipped, err := it.readLine()
		if err != nil {
			it.Close()
			if err != io.EOF {
				return nil, err
			}
		}
		it.consumed += int64(len(skipped))
	}
	return it, nil
}

// readLine returns the stream's next line with its newline, or what is
// left of the stream when no newline follows; io.EOF once nothing is. A
// read error discards the partial line.
func (it *LineIterator) readLine() (string, error) {
	for {
		if i := strings.IndexByte(it.cur, '\n'); i >= 0 {
			line := it.cur[:i+1]
			it.cur = it.cur[i+1:]
			if len(it.carry) > 0 {
				line = string(append(it.carry, line...))
				it.carry = it.carry[:0]
			}
			return line, nil
		}
		it.carry = append(it.carry, it.cur...)
		data, own, err := it.src.fetch()
		if err != nil {
			it.cur = ""
			if err == io.EOF && len(it.carry) > 0 {
				line := string(it.carry)
				it.carry = it.carry[:0]
				return line, nil
			}
			return "", err
		}
		if own {
			it.cur = blockString(data)
		} else {
			it.cur = string(data)
		}
	}
}

// Next returns the next line, without the trailing newline. ok is false at the end of the split and
// on a read error, which Err then reports; either way the iterator has
// closed itself. The line is valid until the next Next or Close (see
// LineIterator).
//
// The boundary rule mirrors Hadoop's LineRecordReader: a split keeps
// reading while the next line starts at or before the split end
// (consumed <= limit), because the following split unconditionally skips
// its first line — including a line that starts exactly on the boundary.
func (it *LineIterator) Next() (line string, ok bool) {
	if it.done || it.consumed > it.limit {
		it.Close()
		return "", false
	}
	s, err := it.readLine()
	if err != nil && err != io.EOF {
		it.err = err
	}
	if s == "" || it.err != nil {
		it.Close()
		return "", false
	}
	it.consumed += int64(len(s))
	if n := len(s); n > 0 && s[n-1] == '\n' {
		s = s[:n-1]
	}
	return s, true
}

// Err returns the read error that ended the iteration early, if any. A
// line cut short by an unreadable block is never returned as a line.
func (it *LineIterator) Err() error { return it.err }

// Close ends the iteration, releases the replica the iterator may hold
// open and gives its block buffer back to the read list. It is idempotent.
func (it *LineIterator) Close() {
	it.done = true
	it.src.release()
}
