package extsort

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/storage"
)

// sectionedFixture is records in (partition, key) order over partitions 0,
// 3, 256 and 70000 (1, 2 and 3 bytes of the prefix in play; 1 and 2 absent),
// a few thousand each.
func sectionedFixture() []partRec {
	var recs []partRec
	for _, part := range []int{0, 3, 256, 70000} {
		for i := 0; i < 3000+part%7*500; i++ {
			recs = append(recs, partRec{part: part, key: fmt.Sprintf("shuffle-%05d", i/3), seq: int64(len(recs))})
		}
	}
	return recs
}

// TestSectionedRunRoundTrip writes one sectioned run and reads it back whole
// and a partition at a time. The file holds no prefix; the index tiles it;
// every reader returns run keys; and a reader of partition k opens the file
// once and reads that section's bytes and no others. Its one cell is the
// empty codec: a sectioned run is written plain.
func TestSectionedRunRoundTrip(t *testing.T) {
	t.Run("codec=", testSectionedRunRoundTrip)
}

func testSectionedRunRoundTrip(t *testing.T) {
	recs := sectionedFixture()
	reg := metrics.NewRegistry()
	disk := storage.NewCostDisk(storage.NewMemDisk(0), storage.CostModel{}, reg)
	readOps, readBytes := reg.Counter("disk.read.ops"), reg.Counter("disk.read.bytes")

	run := writeSectioned(t, disk, "run", recs)
	size, _ := disk.Size("run")
	var payload, span int64
	perPart := map[int][]partRec{}
	for _, r := range recs {
		perPart[r.part] = append(perPart[r.part], r)
		payload += int64(len(r.key) + len(fmt.Sprint(r.seq)))
	}
	if len(run.Sections) != len(perPart) {
		t.Fatalf("%d sections for %d partitions", len(run.Sections), len(perPart))
	}
	for _, sec := range run.Sections {
		if sec.Off != span || sec.Records != int64(len(perPart[sec.Partition])) {
			t.Errorf("section %+v: want offset %d and %d records", sec, span, len(perPart[sec.Partition]))
		}
		span += sec.Len
		payload -= sec.Payload
	}
	if span != size || payload != 0 {
		t.Errorf("sections span %d of the file's %d bytes and miss %d payload bytes", span, size, payload)
	}
	// Framing is two length bytes a record here: the file is the payload
	// and nothing per record besides.
	if want := sumPayload(run) + 2*int64(len(recs)); size != want {
		t.Errorf("file is %d bytes, want %d: something but key and value is on disk", size, want)
	}

	check := func(what string, run Run, want []partRec, wantBytes int64) {
		t.Helper()
		ops0, bytes0 := readOps.Value(), readBytes.Value()
		r, err := OpenSections(disk, run)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i, w := range want {
			rec, err := r.Next()
			if err != nil {
				t.Fatalf("%s record %d: %v", what, i, err)
			}
			k, v, _ := partFormat{}.AppendRecord(nil, nil, w)
			if !bytes.Equal(rec.Key, k) || !bytes.Equal(rec.Value, v) {
				t.Fatalf("%s record %d = (%x, %s), want (%x, %s)", what, i, rec.Key, rec.Value, k, v)
			}
		}
		if _, err := r.Next(); err == nil {
			t.Fatalf("%s: a record past the last", what)
		}
		if ops, n := readOps.Value()-ops0, readBytes.Value()-bytes0; ops != 1 || n != wantBytes {
			t.Errorf("%s: %d opens read %d bytes, want 1 and %d", what, ops, n, wantBytes)
		}
	}
	check("whole run", run, recs, size)
	for _, sec := range run.Sections {
		part, ok := run.Partition(sec.Partition)
		if !ok {
			t.Fatalf("partition %d not found", sec.Partition)
		}
		check(fmt.Sprintf("partition %d", sec.Partition), part, perPart[sec.Partition], sec.Len)
	}
	for _, absent := range []int{1, 2, 255, 257, 70001} {
		if _, ok := run.Partition(absent); ok {
			t.Errorf("partition %d found in a run without it", absent)
		}
	}
}

func sumPayload(run Run) (n int64) {
	for _, sec := range run.Sections {
		n += sec.Payload
	}
	return n
}

func writeSectioned(t *testing.T, disk storage.Disk, name string, recs []partRec) Run {
	t.Helper()
	w, err := CreateSectioned(disk, name, 4)
	if err != nil {
		t.Fatal(err)
	}
	var k, v []byte
	for _, r := range recs {
		k, v, _ = partFormat{}.AppendRecord(k[:0], v[:0], r)
		if err := w.Write(k, v); err != nil {
			t.Fatal(err)
		}
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// A section writer refuses what would break its index: a key shorter than
// the prefix, and a partition behind the one being written.
func TestSectionWriterRejectsBadRunKeys(t *testing.T) {
	w, err := CreateSectioned(storage.NewMemDisk(0), "run", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]byte{0, 0, 1}, nil); !errors.Is(err, errRunKey) {
		t.Errorf("three-byte key: %v, want errRunKey", err)
	}
	for _, key := range [][]byte{{0, 0, 0, 5, 'a'}, {0, 0, 0, 5}, {0, 0, 1, 0, 'a'}} {
		if err := w.Write(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Write([]byte{0, 0, 0, 5, 'z'}, nil); !errors.Is(err, errRunKey) {
		t.Errorf("partition 5 after 256: %v, want errRunKey", err)
	}
	run, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Sections) != 2 || run.Sections[0].Records != 2 || run.Sections[1].Records != 1 {
		t.Errorf("index = %+v, want two records of partition 5 and one of 256", run.Sections)
	}
}

// A run whose file ends before its index says it does is an error, not a
// short read.
func TestSectionReaderTruncatedRun(t *testing.T) {
	disk := storage.NewMemDisk(0)
	run := writeSectioned(t, disk, "run", sectionedFixture()[:10])
	run.Sections[0].Records++
	r, err := OpenSections(disk, run)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 10; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Next(); err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read past the file's end: %v, want an unexpected EOF", err)
	}
}
