package hdfs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

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
	// CachedHosts lists the nodes holding the split's block hot in their
	// page cache at split time (empty with the cache disabled); schedulers
	// prefer these over merely disk-local Hosts.
	CachedHosts []transport.NodeID
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
			File:        name,
			Offset:      b.Offset,
			Length:      b.Size,
			Hosts:       append([]transport.NodeID(nil), b.Replicas...),
			CachedHosts: append([]transport.NodeID(nil), b.Cached...),
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

// readRange reads file bytes [off, off+length) as observed from node at
// and returns them as one slice per block the range touches, in file
// order. The slices are views into the buffers readBlock returned — which
// a cached block shares with the block cache — so callers only read them.
func (fs *FileSystem) readRange(name string, off, length int64, at transport.NodeID) ([][]byte, error) {
	meta, err := fs.lookup(name)
	if err != nil {
		return nil, err
	}
	if off < 0 || off > meta.size {
		return nil, fmt.Errorf("hdfs: offset %d out of range for %q (size %d)", off, name, meta.size)
	}
	if off+length > meta.size {
		length = meta.size - off
	}
	var parts [][]byte
	for _, b := range meta.blocks {
		if b.Offset+b.Size <= off || b.Offset >= off+length {
			continue
		}
		data, _, err := fs.readBlock(b, at)
		if err != nil {
			return nil, err
		}
		start := int64(0)
		if off > b.Offset {
			start = off - b.Offset
		}
		end := b.Size
		if off+length < b.Offset+b.Size {
			end = off + length - b.Offset
		}
		parts = append(parts, data[start:end])
	}
	return parts, nil
}

// LineIterator yields the lines belonging to a split using Hadoop's rule:
// a line belongs to the split in which it starts. The iterator therefore
// skips a leading partial line (unless the split starts at offset 0) and
// reads one line past the end of the split when the final line straddles
// the boundary.
type LineIterator struct {
	r        *bufio.Reader
	consumed int64 // bytes consumed relative to split start
	limit    int64 // split length (stop once consumed > limit at line start)
	offset   int64 // absolute file offset of the next line
	done     bool
}

// OpenLines returns a line iterator over the split as observed from node
// at. The slack read past the split end is bounded by maxLine bytes.
func (fs *FileSystem) OpenLines(sp Split, at transport.NodeID, maxLine int64) (*LineIterator, error) {
	if maxLine <= 0 {
		maxLine = 1 << 20
	}
	parts, err := fs.readRange(sp.File, sp.Offset, sp.Length+maxLine, at)
	if err != nil {
		return nil, err
	}
	readers := make([]io.Reader, len(parts))
	for i, p := range parts {
		readers[i] = bytes.NewReader(p)
	}
	it := &LineIterator{
		r:      bufio.NewReader(io.MultiReader(readers...)),
		limit:  sp.Length,
		offset: sp.Offset,
	}
	if sp.Offset > 0 {
		// Skip the partial line carried over from the previous split.
		skipped, err := it.r.ReadString('\n')
		if err == io.EOF {
			it.done = true
		} else if err != nil {
			return nil, err
		}
		it.consumed += int64(len(skipped))
		it.offset += int64(len(skipped))
	}
	return it, nil
}

// Next returns the next line (without the trailing newline) and its
// absolute byte offset in the file. ok is false at the end of the split.
//
// The boundary rule mirrors Hadoop's LineRecordReader: a split keeps
// reading while the next line starts at or before the split end
// (consumed <= limit), because the following split unconditionally skips
// its first line — including a line that starts exactly on the boundary.
func (it *LineIterator) Next() (line string, offset int64, ok bool) {
	if it.done || it.consumed > it.limit {
		return "", 0, false
	}
	s, err := it.r.ReadString('\n')
	if err == io.EOF && s == "" {
		it.done = true
		return "", 0, false
	}
	offset = it.offset
	it.consumed += int64(len(s))
	it.offset += int64(len(s))
	if n := len(s); n > 0 && s[n-1] == '\n' {
		s = s[:n-1]
	}
	return s, offset, true
}

// ReadLineAt returns the line starting at the given absolute offset of the
// file, as observed from node at. It is used by the K-Means flowlets that
// re-read a record by its location (Alg. 1, steps 4-5).
func (fs *FileSystem) ReadLineAt(name string, off int64, at transport.NodeID, maxLine int64) (string, error) {
	if maxLine <= 0 {
		maxLine = 1 << 20
	}
	parts, err := fs.readRange(name, off, maxLine, at)
	if err != nil {
		return "", err
	}
	var line strings.Builder
	for _, p := range parts {
		if i := bytes.IndexByte(p, '\n'); i >= 0 {
			line.Write(p[:i])
			break
		}
		line.Write(p)
	}
	return line.String(), nil
}
