package storage

import "io"

// FaultPolicy decides injected IO failures for a FaultyDisk. The policy is
// consulted once per Create/Open; a non-nil error arms a fault on the
// returned handle. failAfter is the number of bytes the handle accepts
// (writes) or serves (reads: bytes delivered, wherever Seek put them)
// before every subsequent call returns err; the armed error is also
// surfaced from Close on a writer that never reached the threshold, so an
// armed fault always fires exactly once per handle.
//
// Implementations must be safe for concurrent use; storage deliberately
// knows nothing about how decisions are made (see internal/faults).
type FaultPolicy interface {
	CreateFault(name string) (failAfter int64, err error)
	OpenFault(name string) (failAfter int64, err error)
}

// FaultyDisk wraps a backing Disk and injects read/write errors according
// to a FaultPolicy. Metadata operations (Remove/Size/List) pass through
// untouched. With a nil policy the wrapper is transparent.
type FaultyDisk struct {
	backing Disk
	policy  FaultPolicy
}

// NewFaultyDisk wraps backing with the given policy.
func NewFaultyDisk(backing Disk, policy FaultPolicy) *FaultyDisk {
	return &FaultyDisk{backing: backing, policy: policy}
}

// Backing returns the wrapped disk (tests reach through to MemDisk.Used).
func (d *FaultyDisk) Backing() Disk { return d.backing }

type faultyWriter struct {
	io.WriteCloser
	remain int64
	err    error
	fired  bool
}

func (w *faultyWriter) Write(p []byte) (int, error) {
	if w.err == nil {
		return w.WriteCloser.Write(p)
	}
	if w.remain <= 0 {
		w.fired = true
		return 0, w.err
	}
	if int64(len(p)) > w.remain {
		n, err := w.WriteCloser.Write(p[:w.remain])
		w.remain -= int64(n)
		if err == nil {
			w.fired = true
			err = w.err
		}
		return n, err
	}
	n, err := w.WriteCloser.Write(p)
	w.remain -= int64(n)
	return n, err
}

func (w *faultyWriter) Close() error {
	cerr := w.WriteCloser.Close()
	if w.err != nil && !w.fired {
		// The armed fault never hit a Write (short file); surface it from
		// Close so the failure cannot be silently skipped.
		w.fired = true
		return w.err
	}
	return cerr
}

type faultyReader struct {
	io.ReadSeekCloser
	remain int64
	err    error
}

func (r *faultyReader) Read(p []byte) (int, error) {
	if r.err == nil {
		return r.ReadSeekCloser.Read(p)
	}
	if r.remain <= 0 {
		return 0, r.err
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	n, err := r.ReadSeekCloser.Read(p)
	r.remain -= int64(n)
	return n, err
}

// Create implements Disk.
func (d *FaultyDisk) Create(name string) (io.WriteCloser, error) {
	w, err := d.backing.Create(name)
	if err != nil || d.policy == nil {
		return w, err
	}
	failAfter, ferr := d.policy.CreateFault(name)
	if ferr == nil {
		return w, nil
	}
	return &faultyWriter{WriteCloser: w, remain: failAfter, err: ferr}, nil
}

// Open implements Disk.
func (d *FaultyDisk) Open(name string) (io.ReadSeekCloser, error) {
	r, err := d.backing.Open(name)
	if err != nil || d.policy == nil {
		return r, err
	}
	failAfter, ferr := d.policy.OpenFault(name)
	if ferr == nil {
		return r, nil
	}
	return &faultyReader{ReadSeekCloser: r, remain: failAfter, err: ferr}, nil
}

// Remove implements Disk.
func (d *FaultyDisk) Remove(name string) error { return d.backing.Remove(name) }

// Size implements Disk.
func (d *FaultyDisk) Size(name string) (int64, error) { return d.backing.Size(name) }

// List implements Disk.
func (d *FaultyDisk) List(prefix string) []string { return d.backing.List(prefix) }

var _ Disk = (*FaultyDisk)(nil)
