package extsort

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"github.com/hamr-go/hamr/internal/storage"
)

// A sectioned run is the one on-disk shape of a map task's runs — spills,
// merge intermediates and the task's output alike; Hadoop's IFile with its
// SpillRecord. Its records arrive as run keys, a partition prefix and then
// the key, in (partition, key) order. The file holds them a partition after
// the other without the prefix: nothing on disk, and nothing a reducer
// fetches, names the partition per record. Which bytes are whose is the
// index, one Section per partition that has records, and the index is
// memory: it lives in the Run the writer returns and goes where the task's
// result goes.

// Section locates one partition's records in a sectioned run.
type Section struct {
	Partition int
	// Off and Len are the section's bytes in the file: what a reader of
	// this section alone reads.
	Off, Len int64
	// Payload is the key and value bytes of its records, prefix and framing
	// excluded.
	Payload int64
	Records int64
}

// Run names a run file and says how to read it. With Sections it is a
// sectioned run (or some sections of one, see Partition) whose keys come
// back behind their partition in Prefix bytes. Without, it is a plain run
// file, every key whole on disk: what a RunBuilder spills and CreateRawRun
// writes.
type Run struct {
	Name     string
	Prefix   int
	Sections []Section
}

// Partition narrows r to partition p's section: a run whose reader opens
// the file, seeks to the section and reads its bytes only. ok is false when
// r holds no record of p.
func (r Run) Partition(p int) (_ Run, ok bool) {
	i, ok := slices.BinarySearchFunc(r.Sections, p, func(s Section, p int) int { return s.Partition - p })
	if !ok {
		return Run{}, false
	}
	r.Sections = r.Sections[i : i+1 : i+1]
	return r, true
}

// errRunKey reports a record a sectioned run cannot hold: its key is
// shorter than the partition prefix, or its partition is behind the one
// before it.
var errRunKey = errors.New("extsort: run key without its partition, or out of partition order")

// appendPartition appends p as a big-endian prefix of width bytes.
func appendPartition(dst []byte, p, width int) []byte {
	for i := width - 1; i >= 0; i-- {
		dst = append(dst, byte(p>>(8*i)))
	}
	return dst
}

// partitionOf is appendPartition's inverse.
func partitionOf(prefix []byte) (p int) {
	for _, b := range prefix {
		p = p<<8 | int(b)
	}
	return p
}

// SectionWriter writes a sectioned run: Write takes run keys in
// (partition, key) order, cuts the prefix off and opens a new section when
// it changes; Close returns the run with its index.
type SectionWriter struct {
	run Run
	w   *storage.RecordWriter
	// w's Bytes and Count when the open section began.
	payload0, records0 int64
}

// CreateSectioned creates the named run file for records whose keys begin
// with a partition in prefix bytes (0 to 8, big-endian; 0 makes the run one
// section of partition 0 with nothing cut).
func CreateSectioned(disk storage.Disk, name string, prefix int) (*SectionWriter, error) {
	file, err := disk.Create(name)
	if err != nil {
		return nil, fmt.Errorf("extsort: create run: %w", err)
	}
	return &SectionWriter{run: Run{Name: name, Prefix: prefix}, w: storage.NewRecordWriter(file)}, nil
}

// Write appends one record under its run key.
func (w *SectionWriter) Write(key, value []byte) error {
	n := w.run.Prefix
	if len(key) < n {
		return errRunKey
	}
	p := partitionOf(key[:n])
	if secs := w.run.Sections; len(secs) == 0 || secs[len(secs)-1].Partition != p {
		if len(secs) > 0 && secs[len(secs)-1].Partition > p {
			return errRunKey
		}
		off := w.cut()
		w.run.Sections = append(w.run.Sections, Section{Partition: p, Off: off})
	}
	return w.w.Write(key[n:], value)
}

// cut closes the open section, if there is one, and returns the file
// offset it ends at: the size of the records so far.
func (w *SectionWriter) cut() int64 {
	off := w.w.Size()
	if n := len(w.run.Sections); n > 0 {
		s := &w.run.Sections[n-1]
		s.Len = off - s.Off
		s.Payload = w.w.Bytes() - w.payload0
		s.Records = w.w.Count() - w.records0
	}
	w.payload0, w.records0 = w.w.Bytes(), w.w.Count()
	return off
}

// Close closes the last section and the file, and returns the run.
func (w *SectionWriter) Close() (Run, error) {
	w.cut()
	if err := w.w.Close(); err != nil {
		return Run{}, fmt.Errorf("extsort: close run: %w", err)
	}
	return w.run, nil
}

// fileRange is n bytes of an open file from where it stands, and the file's
// Close.
type fileRange struct {
	io.LimitedReader
	io.Closer
}

// SectionReader streams the records of a run's sections back under the run
// keys they were written with: the section's partition is put at the head
// of the record reader's scratch when the section begins, and every key is
// read in behind it.
type SectionReader struct {
	r      *storage.RecordReader
	prefix int
	next   []Section // the sections not begun
	left   int64     // records left in the one that is
}

// OpenSections opens run on its sections: the file is positioned at the
// first and read to the end of the last, so a run narrowed to one partition
// costs the disk one seek and that partition's bytes.
func OpenSections(disk storage.Disk, run Run) (*SectionReader, error) {
	file, err := disk.Open(run.Name)
	if err != nil {
		return nil, fmt.Errorf("extsort: open run: %w", err)
	}
	var span int64
	if n := len(run.Sections); n > 0 {
		first, last := run.Sections[0], run.Sections[n-1]
		span = last.Off + last.Len - first.Off
		if first.Off > 0 {
			if _, err := file.Seek(first.Off, io.SeekStart); err != nil {
				file.Close()
				return nil, fmt.Errorf("extsort: open run: %w", err)
			}
		}
	}
	r := &fileRange{LimitedReader: io.LimitedReader{R: file, N: span}, Closer: file}
	return &SectionReader{r: storage.NewRecordReader(r), prefix: run.Prefix, next: run.Sections}, nil
}

// Next implements Source. The record is the reader's until the next call.
func (r *SectionReader) Next() (storage.Record, error) {
	for r.left == 0 {
		if len(r.next) == 0 {
			return storage.Record{}, io.EOF
		}
		s := r.next[0]
		r.next, r.left = r.next[1:], s.Records
		var head [8]byte
		r.r.KeyPrefix(appendPartition(head[:0], s.Partition, r.prefix))
	}
	r.left--
	rec, err := r.r.Next()
	if err == io.EOF {
		err = fmt.Errorf("extsort: run ends inside a section: %w", io.ErrUnexpectedEOF)
	}
	return rec, err
}

// Close closes the underlying file.
func (r *SectionReader) Close() error { return r.r.Close() }
