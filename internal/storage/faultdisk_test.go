package storage

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// scriptPolicy arms faults for names containing "bad", failing after a
// fixed byte threshold.
type scriptPolicy struct {
	failAfter int64
	err       error
}

func (p *scriptPolicy) CreateFault(name string) (int64, error) {
	if strings.Contains(name, "bad") {
		return p.failAfter, p.err
	}
	return -1, nil
}

func (p *scriptPolicy) OpenFault(name string) (int64, error) {
	return p.CreateFault(name)
}

func TestFaultyDiskTransparentWithoutFault(t *testing.T) {
	mem := NewMemDisk(0)
	errBoom := errors.New("boom")
	d := NewFaultyDisk(mem, &scriptPolicy{failAfter: 4, err: errBoom})
	if d.Backing() != Disk(mem) {
		t.Fatal("Backing should return the wrapped disk")
	}
	f, err := d.Create("ok/file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := d.Open("ok/file")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil || string(data) != "hello world" {
		t.Fatalf("read %q, %v", data, err)
	}
	r.Close()
	if n, err := d.Size("ok/file"); err != nil || n != 11 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if got := d.List("ok/"); len(got) != 1 {
		t.Fatalf("List = %v", got)
	}
}

func TestFaultyDiskWriteFailsAfterThreshold(t *testing.T) {
	mem := NewMemDisk(0)
	errBoom := errors.New("boom")
	d := NewFaultyDisk(mem, &scriptPolicy{failAfter: 4, err: errBoom})
	f, err := d.Create("bad/file")
	if err != nil {
		t.Fatal(err)
	}
	// First 4 bytes are accepted, the rest fails with the armed error.
	n, err := f.Write([]byte("123456"))
	if n != 4 || !errors.Is(err, errBoom) {
		t.Fatalf("Write = %d, %v; want 4, boom", n, err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, errBoom) {
		t.Fatalf("second Write = %v; want boom", err)
	}
	f.Close()
}

func TestFaultyDiskShortWriteFailsOnClose(t *testing.T) {
	mem := NewMemDisk(0)
	errBoom := errors.New("boom")
	d := NewFaultyDisk(mem, &scriptPolicy{failAfter: 1 << 20, err: errBoom})
	f, err := d.Create("bad/short")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("tiny")); err != nil {
		t.Fatal(err)
	}
	// The file never reached the threshold; the armed fault must still
	// fire exactly once, from Close.
	if err := f.Close(); !errors.Is(err, errBoom) {
		t.Fatalf("Close = %v; want boom", err)
	}
}

func TestFaultyDiskReadFailsAfterThreshold(t *testing.T) {
	mem := NewMemDisk(0)
	errBoom := errors.New("boom")
	d := NewFaultyDisk(mem, &scriptPolicy{failAfter: 3, err: errBoom})
	// Store via the backing disk so the write is clean.
	f, _ := mem.Create("bad/file")
	f.Write([]byte("abcdef"))
	f.Close()

	r, err := d.Open("bad/file")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if !errors.Is(err, errBoom) {
		t.Fatalf("ReadAll err = %v; want boom", err)
	}
	if string(data) != "abc" {
		t.Fatalf("read %q before fault; want \"abc\"", data)
	}
}

// An armed read budget counts bytes delivered: seeking over bytes spends
// none of it, and the fault still fires after failAfter bytes from there.
func TestFaultyDiskSeekKeepsBudget(t *testing.T) {
	mem := NewMemDisk(0)
	errBoom := errors.New("boom")
	d := NewFaultyDisk(mem, &scriptPolicy{failAfter: 3, err: errBoom})
	f, _ := mem.Create("bad/file")
	f.Write([]byte("abcdefghij"))
	f.Close()

	r, err := d.Open("bad/file")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if pos, err := r.Seek(5, io.SeekStart); pos != 5 || err != nil {
		t.Fatalf("Seek = %d, %v", pos, err)
	}
	data, err := io.ReadAll(r)
	if !errors.Is(err, errBoom) {
		t.Fatalf("ReadAll err = %v; want boom", err)
	}
	if string(data) != "fgh" {
		t.Fatalf("read %q before fault; want \"fgh\"", data)
	}
}

func TestFaultyDiskNilPolicyPassthrough(t *testing.T) {
	mem := NewMemDisk(0)
	d := NewFaultyDisk(mem, nil)
	f, err := d.Create("bad/file")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
