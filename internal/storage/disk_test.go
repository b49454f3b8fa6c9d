package storage

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/vtime"
)

// diskContract runs the behavioural contract every Disk implementation
// must satisfy.
func diskContract(t *testing.T, mk func(t *testing.T) Disk) {
	t.Run("createReadRoundTrip", func(t *testing.T) {
		d := mk(t)
		w, err := d.Create("a/b.txt")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("hello ")); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("world")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := d.Open("a/b.txt")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		if string(data) != "hello world" {
			t.Fatalf("read %q", data)
		}
		if n, err := d.Size("a/b.txt"); err != nil || n != 11 {
			t.Fatalf("Size = %d, %v", n, err)
		}
	})
	t.Run("missingFile", func(t *testing.T) {
		d := mk(t)
		var notExist *ErrNotExist
		if _, err := d.Open("nope"); !errors.As(err, &notExist) {
			t.Errorf("Open(missing) = %v, want ErrNotExist", err)
		}
		if _, err := d.Size("nope"); !errors.As(err, &notExist) {
			t.Errorf("Size(missing) = %v, want ErrNotExist", err)
		}
		if err := d.Remove("nope"); !errors.As(err, &notExist) {
			t.Errorf("Remove(missing) = %v, want ErrNotExist", err)
		}
	})
	t.Run("overwrite", func(t *testing.T) {
		d := mk(t)
		for _, content := range []string{"first version", "v2"} {
			w, _ := d.Create("f")
			io.WriteString(w, content)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		r, _ := d.Open("f")
		data, _ := io.ReadAll(r)
		r.Close()
		if string(data) != "v2" {
			t.Fatalf("after overwrite read %q", data)
		}
	})
	t.Run("removeThenList", func(t *testing.T) {
		d := mk(t)
		for _, name := range []string{"x/1", "x/2", "y/1"} {
			w, _ := d.Create(name)
			io.WriteString(w, name)
			w.Close()
		}
		if err := d.Remove("x/1"); err != nil {
			t.Fatal(err)
		}
		got := d.List("x/")
		if len(got) != 1 || got[0] != "x/2" {
			t.Fatalf("List(x/) = %v", got)
		}
		if all := d.List(""); len(all) != 2 {
			t.Fatalf("List(\"\") = %v", all)
		}
	})
	t.Run("seek", func(t *testing.T) {
		d := mk(t)
		w, _ := d.Create("s")
		io.WriteString(w, "0123456789")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := d.Open("s")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		buf := make([]byte, 3)
		for _, c := range []struct {
			off     int64
			whence  int
			wantPos int64
			want    string // "" = io.EOF
		}{
			{4, io.SeekStart, 4, "456"},
			{-5, io.SeekCurrent, 2, "234"}, // from 7
			{-2, io.SeekEnd, 8, "89"},
			{0, io.SeekStart, 0, "012"},
			{25, io.SeekStart, 25, ""}, // past the end is legal, reading there is EOF
			{-20, io.SeekCurrent, 5, "567"},
		} {
			pos, err := r.Seek(c.off, c.whence)
			if err != nil || pos != c.wantPos {
				t.Fatalf("Seek(%d, %d) = %d, %v; want %d", c.off, c.whence, pos, err, c.wantPos)
			}
			n, err := io.ReadFull(r, buf)
			if got := string(buf[:n]); got != c.want || (c.want == "" && err != io.EOF) {
				t.Fatalf("after Seek(%d, %d) read %q, %v; want %q", c.off, c.whence, got, err, c.want)
			}
		}
		if _, err := r.Seek(-1, io.SeekStart); err == nil {
			t.Error("Seek to a negative offset succeeded")
		}
	})
	t.Run("concurrentFiles", func(t *testing.T) {
		d := mk(t)
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name := fmt.Sprintf("c/%d", i)
				w, err := d.Create(name)
				if err != nil {
					errs[i] = err
					return
				}
				fmt.Fprintf(w, "data-%d", i)
				if err := w.Close(); err != nil {
					errs[i] = err
					return
				}
				r, err := d.Open(name)
				if err != nil {
					errs[i] = err
					return
				}
				data, _ := io.ReadAll(r)
				r.Close()
				if string(data) != fmt.Sprintf("data-%d", i) {
					errs[i] = fmt.Errorf("read %q", data)
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}
	})
}

func TestMemDisk(t *testing.T) {
	diskContract(t, func(t *testing.T) Disk { return NewMemDisk(0) })
}

func TestCostDiskPassthrough(t *testing.T) {
	diskContract(t, func(t *testing.T) Disk {
		cd := NewCostDisk(NewMemDisk(0), CostModel{}, nil)
		return cd
	})
}

func TestMemDiskCapacity(t *testing.T) {
	d := NewMemDisk(10)
	w, _ := d.Create("f")
	if _, err := w.Write([]byte("12345")); err != nil {
		t.Fatal(err)
	}
	var full *ErrDiskFull
	if _, err := w.Write([]byte("6789012345")); !errors.As(err, &full) {
		t.Fatalf("overfull write = %v, want ErrDiskFull", err)
	}
	// A small file still fits.
	w2, _ := d.Create("g")
	w2.Write([]byte("ok"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 2 {
		t.Errorf("Used = %d, want 2", d.Used())
	}
}

func TestMemDiskUsedAccounting(t *testing.T) {
	d := NewMemDisk(0)
	w, _ := d.Create("a")
	w.Write(make([]byte, 100))
	w.Close()
	if d.Used() != 100 {
		t.Fatalf("Used = %d", d.Used())
	}
	// Overwrite with smaller content shrinks usage.
	w, _ = d.Create("a")
	w.Write(make([]byte, 40))
	w.Close()
	if d.Used() != 40 {
		t.Fatalf("Used after overwrite = %d", d.Used())
	}
	d.Remove("a")
	if d.Used() != 0 {
		t.Fatalf("Used after remove = %d", d.Used())
	}
}

func TestCostDiskChargesModeledTime(t *testing.T) {
	cd := NewCostDisk(NewMemDisk(0), CostModel{
		SeekLatency:      time.Millisecond,
		ReadBytesPerSec:  1 << 20,
		WriteBytesPerSec: 1 << 20,
	}, nil)
	vc := vtime.NewVirtual(1)
	cd.SetClock(vc, 0)

	w, _ := cd.Create("f") // seek
	w.Write(make([]byte, 1<<20))
	w.Close()
	written := vc.Busy(vtime.Disk)
	if written < time.Millisecond+900*time.Millisecond {
		t.Errorf("write charge %v, want >= ~1s", written)
	}
	r, _ := cd.Open("f") // seek
	io.ReadAll(r)
	r.Close()
	if read := vc.Busy(vtime.Disk) - written; read < time.Millisecond+900*time.Millisecond {
		t.Errorf("read charge %v, want >= ~1s", read)
	}
}

// Positioning an open file is covered by the seek Open charged: Seek adds
// no time, no op and no bytes, and the Read after it pays for what it
// delivers and nothing it skipped.
func TestCostDiskSeekIsFree(t *testing.T) {
	reg := metrics.NewRegistry()
	cd := NewCostDisk(NewMemDisk(0), CostModel{
		SeekLatency:     time.Millisecond,
		ReadBytesPerSec: 1 << 20,
	}, reg)
	vc := vtime.NewVirtual(1)
	cd.SetClock(vc, 0)
	w, _ := cd.Create("f")
	w.Write(make([]byte, 1<<20))
	w.Close()

	r, err := cd.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	opened := vc.Busy(vtime.Disk)
	if _, err := r.Seek(1<<20-1024, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if d := vc.Busy(vtime.Disk) - opened; d != 0 {
		t.Errorf("Seek charged %v", d)
	}
	if n, err := io.ReadFull(r, make([]byte, 1024)); n != 1024 || err != nil {
		t.Fatalf("read after seek = %d, %v", n, err)
	}
	if d, want := vc.Busy(vtime.Disk)-opened, vtime.ByteTime(1024, cd.model.ReadBytesPerSec, cd.model.TimeScale); d != want {
		t.Errorf("1 KiB after a 1 MiB seek charged %v, want %v", d, want)
	}
	if got := reg.Counter("disk.read.bytes").Value(); got != 1024 {
		t.Errorf("disk.read.bytes = %d, want 1024", got)
	}
	if got := reg.Counter("disk.read.ops").Value(); got != 1 {
		t.Errorf("disk.read.ops = %d, want 1", got)
	}
}

func TestCostDiskTimeScale(t *testing.T) {
	charge := func(scale float64) time.Duration {
		cd := NewCostDisk(NewMemDisk(0), CostModel{
			WriteBytesPerSec: 1 << 20, TimeScale: scale,
		}, nil)
		vc := vtime.NewVirtual(1)
		cd.SetClock(vc, 0)
		w, _ := cd.Create("f")
		w.Write(make([]byte, 512<<10))
		w.Close()
		return vc.Busy(vtime.Disk)
	}
	ratio := float64(charge(10)) / float64(charge(1))
	if ratio < 9.5 || ratio > 10.5 {
		t.Errorf("TimeScale 10 changed charge by %.2fx, want ~10x", ratio)
	}
}

// The disk's byte charges follow the bytes, not how they were cut: the same
// bytes written or read in 1-byte pieces, in odd-sized pieces or in one
// piece cost the same modeled time, ByteTime of the total in each
// direction. At 3 and 7 B/s scaled by 30, a charge truncated on its own
// would lose up to 30 ns a call.
func TestDiskByteChargesIgnoreFraming(t *testing.T) {
	const size = 60
	model := CostModel{WriteBytesPerSec: 3, ReadBytesPerSec: 7, TimeScale: 30}
	lane := func(pieces ...int) time.Duration {
		vc := vtime.NewVirtual(1)
		cd := NewCostDisk(NewMemDisk(0), model, nil)
		cd.SetClock(vc, 0)
		w, _ := cd.Create("f")
		for i, off := 0, 0; off < size; i++ {
			n := min(pieces[i%len(pieces)], size-off)
			if _, err := w.Write(make([]byte, n)); err != nil {
				t.Fatal(err)
			}
			off += n
		}
		w.Close()
		r, _ := cd.Open("f")
		defer r.Close()
		for i := 0; ; i++ {
			if _, err := r.Read(make([]byte, pieces[i%len(pieces)])); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		return vc.NodeTime(0)
	}
	want := vtime.ByteTime(size, model.WriteBytesPerSec, model.TimeScale) +
		vtime.ByteTime(size, model.ReadBytesPerSec, model.TimeScale)
	if whole := lane(size); whole != want {
		t.Fatalf("%d bytes written and read in one piece charged %v, want %v", size, whole, want)
	}
	if cut := lane(1); cut != want {
		t.Errorf("%d bytes written and read a byte at a time charged %v, want %v", size, cut, want)
	}
	if cut := lane(7, 2, 11); cut != want {
		t.Errorf("%d bytes written and read in pieces of 7, 2 and 11 charged %v, want %v", size, cut, want)
	}

	// Writers running at once share the disk's running total.
	vc := vtime.NewVirtual(1)
	cd := NewCostDisk(NewMemDisk(0), model, nil)
	cd.SetClock(vc, 0)
	var wg sync.WaitGroup
	for f := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, _ := cd.Create(fmt.Sprintf("f%d", f))
			for range size / 4 {
				w.Write(make([]byte, 1))
			}
			w.Close()
		}()
	}
	wg.Wait()
	if got, want := vc.NodeTime(0), vtime.ByteTime(size, model.WriteBytesPerSec, model.TimeScale); got != want {
		t.Errorf("four writers of %d bytes each, a byte at a time, charged %v, want %v", size/4, got, want)
	}
}

func TestCostDiskParallelSerialization(t *testing.T) {
	// With Parallel=1, two concurrent writers' modeled delays must
	// serialize: total wall >= sum of delays.
	cd := NewCostDisk(NewMemDisk(0), CostModel{
		WriteBytesPerSec: 10 << 20, // 10 MB/s
		Parallel:         1,
	}, nil)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, _ := cd.Create(fmt.Sprintf("f%d", i))
			w.Write(make([]byte, 512<<10)) // 50ms each
			w.Close()
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Errorf("two 50ms writes on Parallel=1 disk finished in %v, want >= ~100ms", elapsed)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	d := NewMemDisk(0)
	recs := []Record{
		{Key: []byte("alpha"), Value: []byte("1")},
		{Key: []byte(""), Value: []byte("empty key")},
		{Key: []byte("gamma"), Value: nil},
		{Key: make([]byte, 3000), Value: make([]byte, 70000)},
	}
	n, err := WriteRecords(d, "runs/r0", recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("wrote %d records, want %d", n, len(recs))
	}
	got, err := ReadRecords(d, "runs/r0")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range recs {
		if string(got[i].Key) != string(recs[i].Key) || string(got[i].Value) != string(recs[i].Value) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

// TestRecordRoundTripProperty: any sequence of key/value byte pairs
// survives a write/read cycle exactly.
func TestRecordRoundTripProperty(t *testing.T) {
	d := NewMemDisk(0)
	i := 0
	f := func(pairs [][2][]byte) bool {
		i++
		name := fmt.Sprintf("prop/%d", i)
		recs := make([]Record, len(pairs))
		for j, p := range pairs {
			recs[j] = Record{Key: p[0], Value: p[1]}
		}
		if _, err := WriteRecords(d, name, recs); err != nil {
			return false
		}
		got, err := ReadRecords(d, name)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for j := range recs {
			if string(got[j].Key) != string(recs[j].Key) ||
				string(got[j].Value) != string(recs[j].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordReaderTruncated(t *testing.T) {
	d := NewMemDisk(0)
	if _, err := WriteRecords(d, "r", []Record{{Key: []byte("k"), Value: []byte("a long enough value")}}); err != nil {
		t.Fatal(err)
	}
	// Corrupt: rewrite with only a prefix of the bytes.
	r, _ := d.Open("r")
	data, _ := io.ReadAll(r)
	r.Close()
	w, _ := d.Create("r")
	w.Write(data[:len(data)-5])
	w.Close()

	f, _ := d.Open("r")
	rr := NewRecordReader(f)
	_, err := rr.Next()
	rr.Close()
	if err == nil || err == io.EOF {
		t.Fatalf("truncated record read: err = %v, want corruption error", err)
	}
}

func TestRecordWriterCounters(t *testing.T) {
	d := NewMemDisk(0)
	f, _ := d.Create("r")
	w := NewRecordWriter(f)
	for i := 0; i < 10; i++ {
		if err := w.Write([]byte("key"), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 10 {
		t.Errorf("Count = %d", w.Count())
	}
	if w.Bytes() != 10*8 {
		t.Errorf("Bytes = %d, want 80", w.Bytes())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSATA3Preset(t *testing.T) {
	m := SATA3()
	if m.ReadBytesPerSec <= 0 || m.WriteBytesPerSec <= 0 || m.SeekLatency <= 0 {
		t.Errorf("SATA3 preset incomplete: %+v", m)
	}
	if m.ReadBytesPerSec < m.WriteBytesPerSec {
		t.Errorf("SATA read should be at least as fast as write")
	}
}
