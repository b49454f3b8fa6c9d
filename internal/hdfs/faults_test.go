package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/transport"
)

// faultFS builds a filesystem over plain MemDisks with a fault injector
// attached, returning the raw disks for leak accounting.
func faultFS(t testing.TB, nodes int, cfg Config, fcfg faults.Config, reg *metrics.Registry) (*FileSystem, []*storage.MemDisk, *faults.Injector) {
	t.Helper()
	mems := make([]*storage.MemDisk, nodes)
	disks := make([]storage.Disk, nodes)
	inj := faults.New(fcfg, nodes, reg)
	for i := range disks {
		mems[i] = storage.NewMemDisk(0)
		disks[i] = inj.WrapDisk(i, mems[i])
	}
	cfg.Substrate = substrate.Handle{Faults: inj, Metrics: reg}
	fs, err := New(disks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ownLists(fs), mems, inj
}

func totalUsed(mems []*storage.MemDisk) int64 {
	var n int64
	for _, d := range mems {
		n += d.Used()
	}
	return n
}

func TestReadFailsOverToLiveReplica(t *testing.T) {
	reg := metrics.NewRegistry()
	fs, _, inj := faultFS(t, 4, Config{BlockSize: 64, Replication: 2},
		faults.Config{Seed: 11, DeadNodes: 1}, reg)

	data := bytes.Repeat([]byte("failover payload "), 40)
	if err := fs.WriteFile("f", data, 0); err != nil {
		t.Fatal(err)
	}
	dead := inj.DeadNodeSet()[0]
	inj.Arm()
	defer inj.Disarm()

	// Read the file as observed from the dead node itself: its local
	// replica is always the first candidate, so every block it holds must
	// fail over to the other replica.
	got, err := fs.ReadFile("f", transport.NodeID(dead))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("failover read corrupted: %d bytes vs %d", len(got), len(data))
	}
	// Expected failover count: one per block whose first candidate (the
	// dead node's local replica) is unreadable.
	blocks, _ := fs.Blocks("f")
	var want int64
	for _, b := range blocks {
		for _, r := range b.Replicas {
			if int(r) == dead {
				want++
			}
		}
	}
	if want == 0 {
		t.Fatalf("seed 11 placed no replica on dead node %d; pick another seed", dead)
	}
	if got := reg.Counter("hdfs.failover.reads").Value(); got != want {
		t.Fatalf("hdfs.failover.reads = %d, want %d", got, want)
	}
}

func TestWritePlacementAvoidsDeadNodes(t *testing.T) {
	reg := metrics.NewRegistry()
	fs, _, inj := faultFS(t, 4, Config{BlockSize: 64, Replication: 2},
		faults.Config{Seed: 3, DeadNodes: 2}, reg)
	inj.Arm()
	defer inj.Disarm()

	data := bytes.Repeat([]byte("x"), 500)
	if err := fs.WriteFile("f", data, -1); err != nil {
		t.Fatal(err)
	}
	deadSet := map[int]bool{}
	for _, n := range inj.DeadNodeSet() {
		deadSet[n] = true
	}
	blocks, _ := fs.Blocks("f")
	for _, b := range blocks {
		if len(b.Replicas) != 2 {
			t.Fatalf("block %s has %d replicas", b.ID, len(b.Replicas))
		}
		for _, r := range b.Replicas {
			if deadSet[int(r)] {
				t.Fatalf("block %s placed on dead node %d", b.ID, r)
			}
		}
	}
	got, err := fs.ReadFile("f", -1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

func TestWriteRePlacesReplicaOffFailingDisk(t *testing.T) {
	// A mid-write disk fault on one replica triggers Hadoop-style pipeline
	// recovery: the replica moves to another node and no partial block file
	// is left behind.
	reg := metrics.NewRegistry()
	fs, mems, inj := faultFS(t, 4, Config{BlockSize: 256, Replication: 2},
		faults.Config{Seed: 1, DiskWrite: 0.15}, reg)
	inj.Arm()

	data := bytes.Repeat([]byte("pipeline recovery "), 200)
	err := fs.WriteFile("f", data, -1)
	inj.Disarm()
	if err != nil {
		t.Fatalf("write with pipeline recovery failed: %v", err)
	}
	if got := reg.Counter("hdfs.write.replaced").Value(); got != 3 {
		t.Fatalf("hdfs.write.replaced = %d, want 3 for seed 1", got)
	}
	got, rerr := fs.ReadFile("f", -1)
	if rerr != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back after re-placement: %v", rerr)
	}
	// Exactly the published blocks' bytes are on disk: no partial files.
	var want int64
	blocks, _ := fs.Blocks("f")
	for _, b := range blocks {
		want += b.Size * int64(len(b.Replicas))
	}
	if used := totalUsed(mems); used != want {
		t.Fatalf("disks hold %d bytes, published blocks account for %d", used, want)
	}
}

func TestFailedWriterLeaksNoBlocks(t *testing.T) {
	// Regression: appendBlock/Close error paths used to leave partially
	// written block files on the datanodes (Close on a MemDisk commits the
	// buffered partial data). After a failed write, disk usage must return
	// to baseline.
	reg := metrics.NewRegistry()
	fs, mems, inj := faultFS(t, 3, Config{BlockSize: 128, Replication: 3},
		faults.Config{Seed: 2, DiskWrite: 1}, reg)

	if err := fs.WriteFile("keep", bytes.Repeat([]byte("k"), 300), -1); err != nil {
		t.Fatal(err)
	}
	baseline := totalUsed(mems)
	if baseline == 0 {
		t.Fatal("baseline file stored no bytes")
	}

	inj.Arm()
	// Every disk write fails, replication == nodes, so there is no live
	// replacement: the write must fail and clean up after itself.
	err := fs.WriteFile("doomed", bytes.Repeat([]byte("d"), 1000), -1)
	inj.Disarm()
	if err == nil {
		t.Fatal("write with all disks failing succeeded")
	}
	if !faults.IsInjected(err) {
		t.Fatalf("error should carry the injected cause: %v", err)
	}
	if used := totalUsed(mems); used != baseline {
		t.Fatalf("failed write leaked %d bytes (baseline %d, now %d)",
			used-baseline, baseline, used)
	}
	if fs.Exists("doomed") {
		t.Fatal("failed file was published")
	}
	// The surviving file is untouched.
	if got, err := fs.ReadFile("keep", -1); err != nil || int64(len(got)) != 300 {
		t.Fatalf("baseline file damaged: %d bytes, %v", len(got), err)
	}
}

func TestWriterAbortRollsBackFlushedBlocks(t *testing.T) {
	fs, mems, _ := faultFS(t, 3, Config{BlockSize: 64, Replication: 2},
		faults.Config{}, nil)
	w := fs.Create("partial", -1)
	if _, err := w.Write(bytes.Repeat([]byte("a"), 200)); err != nil {
		t.Fatal(err)
	}
	if totalUsed(mems) == 0 {
		t.Fatal("expected flushed blocks before abort")
	}
	w.Abort()
	if used := totalUsed(mems); used != 0 {
		t.Fatalf("abort leaked %d bytes", used)
	}
	if fs.Exists("partial") {
		t.Fatal("aborted file was published")
	}
	// Abort after a successful Close is a no-op.
	if err := fs.WriteFile("done", []byte("data"), -1); err != nil {
		t.Fatal(err)
	}
	w2 := fs.Create("done2", -1)
	w2.Write([]byte("more"))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w2.Abort()
	if got, err := fs.ReadFile("done2", -1); err != nil || string(got) != "more" {
		t.Fatalf("abort-after-close damaged file: %q, %v", got, err)
	}
}

func TestReaderFailoverMidStream(t *testing.T) {
	// A per-replica fault on a middle block must fail over transparently
	// inside a line iterator over the whole file.
	reg := metrics.NewRegistry()
	fs, _, inj := faultFS(t, 3, Config{BlockSize: 32, Replication: 2},
		faults.Config{Seed: 1, DeadReplica: 0.2}, reg)
	var data []byte
	for i := 0; i < 20; i++ {
		data = append(data, []byte(fmt.Sprintf("line %02d of the stream\n", i))...)
	}
	if err := fs.WriteFile("s", data, 1); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	defer inj.Disarm()
	got, err := readWhole(fs, "s", 1)
	if err != nil {
		t.Fatalf("stream with failover failed: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("stream corrupted: %d vs %d bytes", len(got), len(data))
	}
	if n := reg.Counter("hdfs.failover.reads").Value(); n != 3 {
		t.Fatalf("hdfs.failover.reads = %d, want 3 for seed 1", n)
	}
}

func TestNoReadableReplicaSurfacesInjectedError(t *testing.T) {
	fs, _, inj := faultFS(t, 2, Config{BlockSize: 64, Replication: 2},
		faults.Config{Seed: 1, DeadNodes: 2}, nil)
	if err := fs.WriteFile("f", []byte("unreachable"), -1); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	defer inj.Disarm()
	_, err := fs.ReadFile("f", -1)
	if err == nil {
		t.Fatal("read with every replica dead succeeded")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error should wrap the injected cause: %v", err)
	}
	if !strings.Contains(err.Error(), "no readable replica") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestSplitBlockBufferHome: the buffer a split reader reads each own block
// into goes back to the read list however the read ends — a replica that
// fails mid-block and hands over to the other, a split whose second block
// has no readable replica, a Close before the end — and the next split, of
// another file, is read in it. The blocks sit on both nodes; a reader on
// node 0 tries node 0's replica first.
func TestSplitBlockBufferHome(t *testing.T) {
	const bs = 4 << 10
	data := shortLines(3*bs - 50)
	whole := Split{File: "f", Length: int64(len(data))}
	for _, tc := range []struct {
		name   string
		policy storage.FaultPolicy // node 0's, on reads
		spoil  func(t *testing.T, disks []storage.Disk)
		read   func(it *LineIterator) error
	}{
		{name: "fails over mid-block", policy: onlyBlock{name: blockName("blk_000000"), failAfter: 1000}},
		{name: "no readable replica", spoil: func(t *testing.T, disks []storage.Disk) {
			for _, d := range disks {
				if err := d.Remove(blockName("blk_000001")); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "closed early", read: func(it *LineIterator) error {
			for range 3 {
				if _, ok := it.Next(); !ok {
					return fmt.Errorf("split ended after fewer than 3 lines: %v", it.Err())
				}
			}
			it.Close()
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			disks := []storage.Disk{storage.NewMemDisk(0), storage.NewMemDisk(0)}
			if tc.policy != nil {
				disks[0] = storage.NewFaultyDisk(disks[0], tc.policy)
			}
			fs, err := New(disks, Config{BlockSize: bs, Replication: 2, Substrate: substrate.Handle{Metrics: reg}})
			if err != nil {
				t.Fatal(err)
			}
			ownLists(fs)
			second := shortLines(bs / 2)
			if err := fs.WriteFile("f", data, 0); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("g", second, 0); err != nil {
				t.Fatal(err)
			}
			if tc.spoil != nil {
				tc.spoil(t, disks)
			}
			it, err := fs.OpenLines(whole, 0)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.read != nil:
				if err := tc.read(it); err != nil {
					t.Fatal(err)
				}
			case tc.spoil != nil:
				for {
					if _, ok := it.Next(); !ok {
						break
					}
				}
				if err := it.Err(); err == nil || !strings.Contains(err.Error(), "no readable replica") {
					t.Fatalf("Err = %v, want no readable replica", err)
				}
			default:
				n := 0
				for {
					line, ok := it.Next()
					if !ok {
						break
					}
					if want := scanLines(data)[n]; line != want {
						t.Fatalf("line %d = %.20q, want %.20q", n, line, want)
					}
					n++
				}
				if err := it.Err(); err != nil || n != len(scanLines(data)) {
					t.Fatalf("%d lines, %v; want %d", n, err, len(scanLines(data)))
				}
				if v := reg.Counter("hdfs.failover.reads").Value(); v != 1 {
					t.Errorf("hdfs.failover.reads = %d, want 1", v)
				}
			}
			it.Close()
			if err := fs.Buffers().Home(); err != nil {
				t.Fatalf("after the split: %v", err)
			}
			made := fs.readBufs.Stats().Made
			if _, err := splitLines(t, fs, Split{File: "g", Length: int64(len(second))}, 1); err != nil {
				t.Fatal(err)
			}
			if err := fs.Buffers().Home(); err != nil {
				t.Errorf("after a second split: %v", err)
			}
			if again := fs.readBufs.Stats().Made; again != made {
				t.Errorf("the second split made %d block buffers, want none", again-made)
			}
		})
	}
}
