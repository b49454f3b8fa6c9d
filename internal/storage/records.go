package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/hamr-go/hamr/internal/par"
)

// Record is a raw key/value byte pair, the unit stored in spill files,
// shuffle segments and HDFS block payloads. Higher layers define how
// typed values map to bytes.
type Record struct {
	Key   []byte
	Value []byte
}

// recordBuf is the 64 KiB buffering a RecordWriter and a RecordReader
// each need.
const recordBuf = 64 << 10

// maxFreeBufs bounds each list below. It has to cover the record
// streams a busy cluster has open at once, or every job pays for the
// excess again. Readers peak in the reducers' final merges, one per
// fetched map output and all open together (24 x 8 in the sort_spill
// benchmark). Writers are fewer: a map task writes one sectioned file per
// spill and then its one file.out, a merge pass or a shuffle fetch writes
// one run, and each closes before the task opens its next, so a task
// holds at most one. 16 MiB at most is held per list.
const maxFreeBufs = 256

// readBuf is what a RecordReader borrows while open: the bufio.Reader
// and the scratch Next decodes into.
type readBuf struct {
	br      *bufio.Reader
	scratch []byte
}

// The buffers of closed writers and readers, process-wide: a process that
// builds a cluster per job reuses them across clusters.
var (
	freeWriters = par.NewList(
		func() *bufio.Writer { return bufio.NewWriterSize(nil, recordBuf) },
		func(bw *bufio.Writer) *bufio.Writer { bw.Reset(nil); return bw }, // drop the closed file
	).Bounded(maxFreeBufs)
	freeReaders = par.NewList(
		func() *readBuf { return &readBuf{br: bufio.NewReaderSize(nil, recordBuf)} },
		func(rb *readBuf) *readBuf { rb.br.Reset(nil); return rb },
	).Bounded(maxFreeBufs)
)

// RecordBuffers names the process-wide lists of record writer and reader
// buffers.
func RecordBuffers() par.Buffers {
	return par.Buffers{"record-writers": freeWriters.Stats, "record-readers": freeReaders.Stats}
}

// RecordWriter writes length-prefixed records to an underlying writer.
// Format per record: uvarint(keyLen) keyBytes uvarint(valueLen) valueBytes.
type RecordWriter struct {
	w       *bufio.Writer // nil once closed
	c       io.Closer
	scratch [binary.MaxVarintLen64]byte
	size    int64
	bytes   int64
	count   int64
}

// NewRecordWriter wraps w. If w is also an io.Closer, Close closes it.
func NewRecordWriter(w io.Writer) *RecordWriter {
	bw := freeWriters.Get()
	bw.Reset(w)
	rw := &RecordWriter{w: bw}
	if c, ok := w.(io.Closer); ok {
		rw.c = c
	}
	return rw
}

// Write appends one record.
func (w *RecordWriter) Write(key, value []byte) error {
	kn := binary.PutUvarint(w.scratch[:], uint64(len(key)))
	if _, err := w.w.Write(w.scratch[:kn]); err != nil {
		return err
	}
	if _, err := w.w.Write(key); err != nil {
		return err
	}
	vn := binary.PutUvarint(w.scratch[:], uint64(len(value)))
	if _, err := w.w.Write(w.scratch[:vn]); err != nil {
		return err
	}
	if _, err := w.w.Write(value); err != nil {
		return err
	}
	w.size += int64(kn + len(key) + vn + len(value))
	w.bytes += int64(len(key) + len(value))
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *RecordWriter) Count() int64 { return w.count }

// Bytes returns the payload bytes written (keys+values, excluding framing).
func (w *RecordWriter) Bytes() int64 { return w.bytes }

// Size returns the bytes written, framing included: where the next record
// begins in the stream of records.
func (w *RecordWriter) Size() int64 { return w.size }

// Close flushes buffered data, closes the underlying writer if it is a
// Closer, and gives the write buffer back for the next writer. A second
// Close is a no-op; a Write after Close is a bug and panics.
func (w *RecordWriter) Close() error {
	if w.w == nil {
		return nil
	}
	err := w.w.Flush()
	freeWriters.Put(w.w)
	w.w = nil
	if w.c != nil {
		if cerr := w.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RecordReader reads records written by RecordWriter.
type RecordReader struct {
	rb *readBuf // nil once closed
	c  io.Closer
	// prefix bytes at the head of the scratch go in front of every key
	// (see KeyPrefix).
	prefix int
}

// NewRecordReader wraps r. If r is also an io.Closer, Close closes it.
func NewRecordReader(r io.Reader) *RecordReader {
	rb := freeReaders.Get()
	rb.br.Reset(r)
	rr := &RecordReader{rb: rb}
	if c, ok := r.(io.Closer); ok {
		rr.c = c
	}
	return rr
}

const maxRecordSide = 1 << 30 // sanity bound on one key or value

// KeyPrefix makes every key Next returns from now on begin with p, which
// the stream does not hold: p is copied to the head of the reader's scratch
// once and each key is read in behind it, so a record costs no more than
// one without a prefix.
func (r *RecordReader) KeyPrefix(p []byte) {
	copy(r.grow(0, len(p)), p)
	r.prefix = len(p)
}

// Next returns the next record, or io.EOF at end of stream. The returned
// slices point into the reader's scratch: they are valid until the next
// call to Next, KeyPrefix or Close, and a caller that keeps a record longer
// copies it (ReadRecords does).
func (r *RecordReader) Next() (Record, error) {
	br := r.rb.br
	klen, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return Record{}, fmt.Errorf("storage: truncated record: %w", err)
		}
		return Record{}, err
	}
	if klen > maxRecordSide {
		return Record{}, fmt.Errorf("storage: implausible key length %d", klen)
	}
	key := r.grow(r.prefix, int(klen))
	if _, err := io.ReadFull(br, key); err != nil {
		return Record{}, fmt.Errorf("storage: truncated key: %w", err)
	}
	vlen, err := binary.ReadUvarint(br)
	if err != nil {
		return Record{}, fmt.Errorf("storage: truncated value length: %w", err)
	}
	if vlen > maxRecordSide {
		return Record{}, fmt.Errorf("storage: implausible value length %d", vlen)
	}
	kend := r.prefix + int(klen)
	value := r.grow(kend, int(vlen))
	if _, err := io.ReadFull(br, value); err != nil {
		return Record{}, fmt.Errorf("storage: truncated value: %w", err)
	}
	// grow may have moved the scratch under key; re-slice it, from the
	// prefix on.
	return Record{Key: r.rb.scratch[:kend:kend], Value: value}, nil
}

// grow returns scratch[keep:keep+n], enlarging the scratch (and keeping
// its first keep bytes) when it is too small.
func (r *RecordReader) grow(keep, n int) []byte {
	sc := r.rb.scratch
	if need := keep + n; need > cap(sc) {
		nsc := make([]byte, max(need, 2*cap(sc), 256))
		copy(nsc, sc[:keep])
		sc = nsc
		r.rb.scratch = sc
	}
	sc = sc[:cap(sc)]
	return sc[keep : keep+n : keep+n]
}

// Close closes the underlying reader if it is a Closer and gives the
// read buffer back for the next reader. A second Close is a no-op.
func (r *RecordReader) Close() error {
	if r.rb == nil {
		return nil
	}
	freeReaders.Put(r.rb)
	r.rb = nil
	if r.c != nil {
		return r.c.Close()
	}
	return nil
}

// WriteRecords writes all records to a named file on disk and returns the
// record count.
func WriteRecords(d Disk, name string, recs []Record) (int64, error) {
	f, err := d.Create(name)
	if err != nil {
		return 0, err
	}
	w := NewRecordWriter(f)
	for _, rec := range recs {
		if err := w.Write(rec.Key, rec.Value); err != nil {
			w.Close()
			return 0, err
		}
	}
	return w.Count(), w.Close()
}

// ReadRecords reads every record from a named file.
func ReadRecords(d Disk, name string) ([]Record, error) {
	f, err := d.Open(name)
	if err != nil {
		return nil, err
	}
	r := NewRecordReader(f)
	defer r.Close()
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		// Next's slices die with the next call; one copy per record.
		buf := make([]byte, len(rec.Key)+len(rec.Value))
		n := copy(buf, rec.Key)
		copy(buf[n:], rec.Value)
		recs = append(recs, Record{Key: buf[:n:n], Value: buf[n:]})
	}
}
