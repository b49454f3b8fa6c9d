package extsort

import (
	"fmt"
	"io"

	"github.com/hamr-go/hamr/internal/storage"
)

// Format converts typed records to and from the raw key/value byte
// pairs stored in length-prefixed run files. Encoders append into
// caller-provided scratch (reused across records); decoders
// receive slices they must not retain.
//
// Byte-order contract: for the Compare the runs are sorted by,
// bytes.Compare on two records' encoded keys must have the sign of
// Compare on the records, and equal only when Compare is zero. Runs are
// merged as bytes (MergeToFactor) without ever calling DecodeRecord, so a
// Format that breaks the contract produces unsorted intermediates.
type Format[T any] interface {
	// AppendRecord appends rec's key and value encodings to kbuf and
	// vbuf (either may be nil) and returns the extended slices.
	AppendRecord(kbuf, vbuf []byte, rec T) ([]byte, []byte, error)
	// DecodeRecord reconstructs a record from raw key/value bytes.
	DecodeRecord(key, value []byte) (T, error)
}

// CreateRawRun creates the named run file and returns the record writer
// over it, for callers that already hold encoded key/value bytes.
func CreateRawRun(disk storage.Disk, name string) (*storage.RecordWriter, error) {
	file, err := disk.Create(name)
	if err != nil {
		return nil, fmt.Errorf("extsort: create run: %w", err)
	}
	return storage.NewRecordWriter(file), nil
}

// OpenRawRun opens a run and returns the record reader over it: encoded
// key/value bytes, valid until the next call to Next.
func OpenRawRun(disk storage.Disk, name string) (*storage.RecordReader, error) {
	file, err := disk.Open(name)
	if err != nil {
		return nil, fmt.Errorf("extsort: open run: %w", err)
	}
	return storage.NewRecordReader(file), nil
}

// writeRun merges the sorted sources, ties to the earlier source, into one
// run file.
func writeRun[T any](disk storage.Disk, name string, f Format[T], sources []Source[T], cmp Compare[T]) error {
	w, err := CreateRawRun(disk, name)
	if err != nil {
		return err
	}
	var k, v []byte // encode scratch, reused across records
	err = Merge(sources, cmp, func(rec T, _ int) error {
		var err error
		if k, v, err = f.AppendRecord(k[:0], v[:0], rec); err != nil {
			return err
		}
		if err := w.Write(k, v); err != nil {
			return fmt.Errorf("extsort: write run: %w", err)
		}
		return nil
	})
	if err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("extsort: close run: %w", err)
	}
	return nil
}

// RunReader streams one run file back as a merge Source.
type RunReader[T any] struct {
	r *storage.RecordReader
	f Format[T]
}

// OpenRun opens the named run file for reading.
func OpenRun[T any](disk storage.Disk, name string, f Format[T]) (*RunReader[T], error) {
	r, err := OpenRawRun(disk, name)
	if err != nil {
		return nil, err
	}
	return &RunReader[T]{r: r, f: f}, nil
}

// Next implements Source.
func (r *RunReader[T]) Next() (T, error) {
	rec, err := r.r.Next()
	if err != nil {
		var zero T
		if err == io.EOF {
			return zero, io.EOF
		}
		return zero, fmt.Errorf("extsort: read run: %w", err)
	}
	return r.f.DecodeRecord(rec.Key, rec.Value)
}

// Close closes the underlying file.
func (r *RunReader[T]) Close() error { return r.r.Close() }
