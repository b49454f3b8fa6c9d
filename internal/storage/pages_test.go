package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// selfDescribing returns size bytes only the file (name, version) can
// hold: a header naming it, then a body derived from both and the offset.
// A page recycled under an open reader shows as another file's bytes.
func selfDescribing(name string, version, size int) []byte {
	head := fmt.Sprintf("%s#%d#%d\n", name, version, size)
	buf := make([]byte, max(size, len(head)))
	copy(buf, head)
	seed := uint64(version)*0x9E3779B97F4A7C15 + 1
	for _, c := range []byte(name) {
		seed = seed*131 + uint64(c)
	}
	for i := len(head); i < len(buf); i++ {
		buf[i] = byte((seed + uint64(i)*2654435761) >> 13)
	}
	return buf
}

// checkSelfDescribing verifies data read from the file opened as name.
func checkSelfDescribing(name string, data []byte) error {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return fmt.Errorf("%s: no header in %d bytes", name, len(data))
	}
	var gotName string
	var version, size int
	head := bytes.ReplaceAll(data[:nl], []byte("#"), []byte(" "))
	if _, err := fmt.Sscanf(string(head), "%s %d %d", &gotName, &version, &size); err != nil {
		return fmt.Errorf("%s: header %q: %v", name, data[:nl], err)
	}
	if gotName != name {
		return fmt.Errorf("opened %s, read a file that says it is %s", name, gotName)
	}
	if want := selfDescribing(name, version, size); !bytes.Equal(data, want) {
		return fmt.Errorf("%s v%d: %d bytes read differ from the %d written", name, version, len(data), len(want))
	}
	return nil
}

func writeAll(t testing.TB, d Disk, name string, data []byte, chunk int) {
	t.Helper()
	w, err := d.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	for len(data) > 0 {
		n := min(chunk, len(data))
		if _, err := w.Write(data[:n]); err != nil {
			t.Fatal(err)
		}
		data = data[n:]
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkLedger asserts the page ledger's invariants and, when wantLive is
// >= 0, the number of live pages.
func checkLedger(t testing.TB, d *MemDisk, wantLive int) {
	t.Helper()
	st := d.PageStats()
	if st.Made != st.Live+st.Free {
		t.Errorf("ledger: made %d != live %d + free %d", st.Made, st.Live, st.Free)
	}
	if st.Made != st.Peak {
		t.Errorf("ledger: made %d pages but the high-water mark is %d", st.Made, st.Peak)
	}
	if wantLive >= 0 && st.Live != wantLive {
		t.Errorf("ledger: %d pages live, want %d", st.Live, wantLive)
	}
	if wantLive == 0 {
		if err := d.Buffers().Home(); err != nil {
			t.Errorf("ledger: %v", err)
		}
	}
}

func TestMemDiskPagesRecycle(t *testing.T) {
	d := NewMemDisk(0)
	sizes := []int{1, 700, 2 << 10, 64 << 10, 64<<10 + 1, 200 << 10}
	round := func(version int) {
		for i, size := range sizes {
			name := fmt.Sprintf("f%d", i)
			writeAll(t, d, name, selfDescribing(name, version, size), 64<<10)
		}
		checkLedger(t, d, -1)
		for i := range sizes {
			name := fmt.Sprintf("f%d", i)
			r, err := d.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
			if err := checkSelfDescribing(name, data); err != nil {
				t.Error(err)
			}
			if err := d.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
		if d.Used() != 0 {
			t.Errorf("Used = %d after removing every file", d.Used())
		}
		checkLedger(t, d, 0)
	}
	round(1)
	made := d.PageStats()
	round(2)
	if again := d.PageStats(); again.Made != made.Made || again.MadeBytes != made.MadeBytes {
		t.Errorf("second round made pages: %+v -> %+v", made, again)
	}
}

// A small file must not pin a large page: what the prototype's fixed
// 64 KiB page did to every 2 KiB shuffle segment.
func TestMemDiskSmallFileSmallPage(t *testing.T) {
	d := NewMemDisk(0)
	writeAll(t, d, "seg", make([]byte, 2<<10), 64<<10)
	if st := d.PageStats(); st.MadeBytes > 4<<10 {
		t.Errorf("a 2 KiB file holds %d bytes of pages", st.MadeBytes)
	}
	// Written in 2 600 dribbles, a file still needs few pages.
	writeAll(t, d, "dribble", make([]byte, 256<<10), 100)
	if st := d.PageStats(); st.Live > 24 {
		t.Errorf("%d pages live for a 2 KiB and a 256 KiB file", st.Live)
	}
	checkLedger(t, d, -1)
}

// Read must fill the caller's buffer across page boundaries: CostDisk
// charges per call, so a short read would change modeled time.
func TestMemDiskReadFillsAcrossPages(t *testing.T) {
	d := NewMemDisk(0)
	data := selfDescribing("big", 1, 200_000)
	writeAll(t, d, "big", data, 7001)
	r, err := d.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	buf := make([]byte, 150_000)
	for _, want := range []int{150_000, 50_000} {
		n, err := r.Read(buf)
		if n != want || err != nil {
			t.Fatalf("Read = %d, %v; want %d, nil", n, err, want)
		}
		if !bytes.Equal(buf[:n], data[:n]) {
			t.Fatal("read bytes differ")
		}
		data = data[n:]
	}
	if n, err := r.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("Read at end = %d, %v; want 0, EOF", n, err)
	}
}

// Seek must land on the right byte whichever page holds it (pages differ in
// size), including the first and last byte of every page, and a reader
// positioned past the end or closed must say so.
func TestMemDiskSeekAcrossPages(t *testing.T) {
	d := NewMemDisk(0)
	data := selfDescribing("big", 1, 200_000)
	writeAll(t, d, "big", data, 7001)
	r, err := d.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	bound := int64(0)
	for _, pg := range d.files["big"].pages {
		offs = append(offs, bound, bound+int64(len(pg))-1)
		bound += int64(len(pg))
	}
	if len(offs) < 8 || bound != int64(len(data)) {
		t.Fatalf("file has %d pages over %d bytes", len(offs)/2, bound)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		offs = append(offs, rng.Int63n(int64(len(data))))
	}
	buf := make([]byte, 70_000) // longer than any page
	for _, off := range offs {
		if pos, err := r.Seek(off, io.SeekStart); pos != off || err != nil {
			t.Fatalf("Seek(%d) = %d, %v", off, pos, err)
		}
		want := data[off:min(off+int64(len(buf)), int64(len(data)))]
		if n, err := r.Read(buf); err != nil || !bytes.Equal(buf[:n], want) {
			t.Fatalf("Read at %d = %d bytes, %v; want %d matching bytes", off, n, err, len(want))
		}
	}
	for _, off := range []int64{int64(len(data)), int64(len(data)) + 1000} {
		if _, err := r.Seek(off, io.SeekStart); err != nil {
			t.Fatalf("Seek(%d) past the end: %v", off, err)
		}
		if n, err := r.Read(buf); n != 0 || err != io.EOF {
			t.Fatalf("Read at %d = %d, %v; want 0, EOF", off, n, err)
		}
	}
	r.Close()
	if _, err := r.Seek(0, io.SeekStart); err == nil {
		t.Error("Seek on a closed reader succeeded")
	}
	checkLedger(t, d, len(d.files["big"].pages))
}

func TestMemDiskReaderHoldsPages(t *testing.T) {
	for _, how := range []string{"remove", "overwrite"} {
		t.Run(how, func(t *testing.T) {
			d := NewMemDisk(0)
			const size = 100 << 10
			writeAll(t, d, "a", selfDescribing("a", 1, size), 64<<10)
			held := d.PageStats().Live
			r, err := d.Open("a")
			if err != nil {
				t.Fatal(err)
			}
			if how == "remove" {
				if err := d.Remove("a"); err != nil {
					t.Fatal(err)
				}
				if d.Used() != 0 {
					t.Errorf("Used = %d after Remove", d.Used())
				}
			} else {
				writeAll(t, d, "a", selfDescribing("a", 2, size), 64<<10)
			}
			// Same-sized files would take a's pages, were they free.
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("b%d", i)
				writeAll(t, d, name, selfDescribing(name, 1, size), 64<<10)
			}
			data, err := io.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSelfDescribing("a", data); err != nil {
				t.Error(err)
			}
			if !bytes.Equal(data, selfDescribing("a", 1, size)) {
				t.Error("the reader did not see the version it opened")
			}
			before := d.PageStats()
			r.Close()
			r.Close() // a second Close must not drop a second reference
			after := d.PageStats()
			if after.Live != before.Live-held || after.Free != before.Free+held {
				t.Errorf("closing the last reader: %+v -> %+v, want %d pages freed", before, after, held)
			}
			if _, err := r.Read(make([]byte, 1)); err == nil {
				t.Error("Read after Close succeeded")
			}
			checkLedger(t, d, -1)
		})
	}
}

func TestMemDiskFullOnCloseReturnsPages(t *testing.T) {
	d := NewMemDisk(10)
	w1, _ := d.Create("one")
	w2, _ := d.Create("two")
	for _, w := range []io.Writer{w1, w2} {
		if _, err := w.Write([]byte("123456")); err != nil {
			t.Fatal(err) // each fits on its own
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	var full *ErrDiskFull
	if err := w2.Close(); !errors.As(err, &full) {
		t.Fatalf("second Close = %v, want ErrDiskFull", err)
	}
	if d.Used() != 6 {
		t.Errorf("Used = %d, want 6", d.Used())
	}
	if _, err := d.Size("two"); err == nil {
		t.Error("the file that did not fit exists")
	}
	checkLedger(t, d, 1)
}

// TestMemDiskRecyclingRace has writers, overwriters, readers and removers
// work one disk at once — directly and through a FaultyDisk whose policy
// cuts some files short. Run under -race it checks the locking; the
// self-describing contents check that no reader ever sees a page that was
// recycled under it; the ledger checks that every page comes home.
func TestMemDiskRecyclingRace(t *testing.T) {
	mem := NewMemDisk(0)
	errBoom := errors.New("boom")
	disks := []Disk{mem, NewFaultyDisk(mem, &scriptPolicy{failAfter: 3000, err: errBoom})}
	const (
		workers = 8
		names   = 12
		rounds  = 300
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			d := disks[g%len(disks)]
			for i := 0; i < rounds; i++ {
				// Names are shared between workers so that overwrite, Remove
				// and Open race on the same file; "bad" ones are cut short
				// by the faulty disk's writers and readers.
				name := fmt.Sprintf("f%02d", rng.Intn(names))
				if rng.Intn(4) == 0 {
					name = "bad" + name
				}
				switch rng.Intn(3) {
				case 0:
					size := 1 << rng.Intn(18)
					data := selfDescribing(name, g*rounds+i, size+rng.Intn(size))
					w, err := d.Create(name)
					if err != nil {
						t.Error(err)
						return
					}
					_, werr := w.Write(data)
					cerr := w.Close()
					for _, err := range []error{werr, cerr} {
						if err != nil && !errors.Is(err, errBoom) {
							t.Error(err)
						}
					}
				case 1:
					r, err := d.Open(name)
					if err != nil {
						continue // not there right now
					}
					data, err := io.ReadAll(r)
					r.Close()
					if errors.Is(err, errBoom) {
						continue
					}
					if err != nil {
						t.Error(err)
					} else if cerr := checkSelfDescribing(name, data); cerr != nil && len(data) != 3000 {
						// (3000 bytes is a file the faulty writer cut short.)
						t.Error(cerr)
					}
				case 2:
					_ = d.Remove(name) // missing is fine
				}
			}
		}(g)
	}
	wg.Wait()
	for _, name := range mem.List("") {
		if err := mem.Remove(name); err != nil {
			t.Error(err)
		}
	}
	if mem.Used() != 0 {
		t.Errorf("Used = %d after removing every file", mem.Used())
	}
	checkLedger(t, mem, 0)
}

// TestRecordBuffersRecycle checks the package's buffer free lists the way
// the page test checks pages: records written and read by many goroutines
// at once, each through writers and readers that borrowed someone else's
// buffer, come back intact.
func TestRecordBuffersRecycle(t *testing.T) {
	d := NewMemDisk(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var key [8]byte
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("run-%d-%d", g, i)
				n := 1 + (g*31+i*17)%3000
				f, _ := d.Create(name)
				w := NewRecordWriter(f)
				for j := 0; j < n; j++ {
					binary.BigEndian.PutUint64(key[:], uint64(g)<<32|uint64(j))
					if err := w.Write(key[:], selfDescribing(name, j, j%90)); err != nil {
						t.Error(err)
						return
					}
				}
				if err := w.Close(); err != nil {
					t.Error(err)
					return
				}
				w.Close() // harmless
				f2, _ := d.Open(name)
				r := NewRecordReader(f2)
				for j := 0; j < n; j++ {
					rec, err := r.Next()
					if err != nil {
						t.Errorf("%s record %d: %v", name, j, err)
						break
					}
					if got := binary.BigEndian.Uint64(rec.Key); got != uint64(g)<<32|uint64(j) {
						t.Errorf("%s record %d: key %x", name, j, got)
					}
					if !bytes.Equal(rec.Value, selfDescribing(name, j, j%90)) {
						t.Errorf("%s record %d: foreign value bytes", name, j)
					}
				}
				if _, err := r.Next(); err != io.EOF {
					t.Errorf("%s: after the last record: %v", name, err)
				}
				r.Close()
				r.Close()
				if err := d.Remove(name); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	checkLedger(t, d, 0)
	if err := RecordBuffers().Home(); err != nil {
		t.Error(err)
	}
}
