package hdfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/transport"
)

func newFS(t testing.TB, nodes int, cfg Config) (*FileSystem, []storage.Disk) {
	t.Helper()
	disks := make([]storage.Disk, nodes)
	for i := range disks {
		disks[i] = storage.NewMemDisk(0)
	}
	fs, err := New(disks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs, disks
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs, _ := newFS(t, 3, Config{BlockSize: 64})
	data := []byte(strings.Repeat("0123456789\n", 50)) // spans many blocks
	if err := fs.WriteFile("dir/f.txt", data, -1); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("dir/f.txt", -1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(data))
	}
	if n, _ := fs.Size("dir/f.txt"); n != int64(len(data)) {
		t.Errorf("Size = %d", n)
	}
	if !fs.Exists("dir/f.txt") || fs.Exists("dir/other") {
		t.Error("Exists wrong")
	}
}

// readWhole reads a file as observed from node at through OpenLines over
// one split that covers it, putting back the newline Next strips after each
// line (none after a last line that ends the file).
func readWhole(fs *FileSystem, name string, at transport.NodeID) ([]byte, error) {
	size, err := fs.Size(name)
	if err != nil {
		return nil, err
	}
	it, err := fs.OpenLines(Split{File: name, Length: size}, at)
	if err != nil {
		return nil, err
	}
	got := make([]byte, 0, size)
	for {
		line, ok := it.Next()
		if !ok {
			return got, it.Err()
		}
		if got = append(got, line...); int64(len(got)) < size {
			got = append(got, '\n')
		}
	}
}

func TestStreamingReader(t *testing.T) {
	fs, _ := newFS(t, 2, Config{BlockSize: 32})
	data := []byte(strings.Repeat("abcdefgh", 100))
	fs.WriteFile("f", data, -1)
	got, err := readWhole(fs, "f", -1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("streaming read mismatch")
	}
}

func TestBlockLayoutAndReplication(t *testing.T) {
	fs, disks := newFS(t, 4, Config{BlockSize: 100, Replication: 2})
	data := make([]byte, 250) // 3 blocks: 100+100+50
	fs.WriteFile("f", data, -1)
	blocks, err := fs.Blocks("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("%d blocks, want 3", len(blocks))
	}
	wantSizes := []int64{100, 100, 50}
	var off int64
	for i, b := range blocks {
		if b.Size != wantSizes[i] {
			t.Errorf("block %d size %d, want %d", i, b.Size, wantSizes[i])
		}
		if b.Offset != off {
			t.Errorf("block %d offset %d, want %d", i, b.Offset, off)
		}
		off += b.Size
		if len(b.Replicas) != 2 {
			t.Errorf("block %d has %d replicas", i, len(b.Replicas))
		}
		if b.Replicas[0] == b.Replicas[1] {
			t.Errorf("block %d replicas on same node", i)
		}
		// Each replica actually exists on the datanode's disk.
		for _, node := range b.Replicas {
			if _, err := disks[node].Size("hdfs/" + b.ID); err != nil {
				t.Errorf("block %s missing on node %d: %v", b.ID, node, err)
			}
		}
	}
}

func TestPreferredPlacement(t *testing.T) {
	fs, _ := newFS(t, 4, Config{BlockSize: 64, Replication: 2})
	fs.WriteFile("f", make([]byte, 300), 2)
	blocks, _ := fs.Blocks("f")
	for i, b := range blocks {
		if b.Replicas[0] != 2 {
			t.Errorf("block %d first replica on node %d, want preferred node 2", i, b.Replicas[0])
		}
	}
}

func TestRemoteReadCharges(t *testing.T) {
	var charges int
	var chargedBytes int64
	fs, _ := newFS(t, 3, Config{
		BlockSize: 64,
		Remote: func(from, to transport.NodeID, n int64) {
			charges++
			chargedBytes += n
		},
	})
	data := make([]byte, 200)
	fs.WriteFile("f", data, 0) // all blocks on node 0 (replication 1)

	charges, chargedBytes = 0, 0
	if _, err := fs.ReadFile("f", 0); err != nil { // local
		t.Fatal(err)
	}
	if charges != 0 {
		t.Errorf("local read charged %d transfers", charges)
	}
	if _, err := fs.ReadFile("f", 1); err != nil { // remote
		t.Fatal(err)
	}
	if charges == 0 || chargedBytes != 200 {
		t.Errorf("remote read charged %d transfers / %d bytes, want all 200 bytes", charges, chargedBytes)
	}
}

func TestRemoveDeletesBlocks(t *testing.T) {
	fs, disks := newFS(t, 2, Config{BlockSize: 32})
	fs.WriteFile("f", make([]byte, 100), -1)
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("f") {
		t.Error("file still exists")
	}
	for i, d := range disks {
		if names := d.List("hdfs/"); len(names) != 0 {
			t.Errorf("node %d still stores %v", i, names)
		}
	}
	if err := fs.Remove("f"); err == nil {
		t.Error("double remove succeeded")
	}
}

func TestListPrefix(t *testing.T) {
	fs, _ := newFS(t, 1, Config{})
	for _, n := range []string{"in/a", "in/b", "out/c"} {
		fs.WriteFile(n, []byte("x"), -1)
	}
	if got := fs.List("in/"); len(got) != 2 || got[0] != "in/a" {
		t.Errorf("List(in/) = %v", got)
	}
}

func TestSplitsAndLineIterator(t *testing.T) {
	fs, _ := newFS(t, 3, Config{BlockSize: 37}) // awkward size: lines straddle blocks
	var sb strings.Builder
	var want []string
	for i := 0; i < 100; i++ {
		line := fmt.Sprintf("line-%04d with some payload %d", i, i*i)
		want = append(want, line)
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	fs.WriteFile("f", []byte(sb.String()), -1)

	splits, err := fs.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 2 {
		t.Fatalf("only %d splits", len(splits))
	}
	// The lines of all splits, taken in split order, rebuild the file
	// exactly: a line lost at a boundary or read by two splits changes it.
	var got strings.Builder
	lines := 0
	for _, sp := range splits {
		it, err := fs.OpenLines(sp, -1)
		if err != nil {
			t.Fatal(err)
		}
		for {
			line, ok := it.Next()
			if !ok {
				break
			}
			got.WriteString(line)
			got.WriteByte('\n')
			lines++
		}
	}
	if lines != len(want) {
		t.Fatalf("iterated %d lines, want %d", lines, len(want))
	}
	if got.String() != sb.String() {
		t.Errorf("splits' lines in order do not rebuild the file")
	}
}

// Property: for any line lengths and block size, iterating all splits
// yields every line exactly once — Hadoop's split-boundary rule.
func TestSplitLinePropertyQuick(t *testing.T) {
	f := func(lineLens []uint8, blockSize uint8) bool {
		if len(lineLens) == 0 {
			return true
		}
		bs := int64(blockSize)%200 + 10
		fs, _ := newFS(t, 2, Config{BlockSize: bs})
		var sb strings.Builder
		var want []string
		for i, ll := range lineLens {
			n := int(ll) % 60
			line := fmt.Sprintf("%02d:%s", i%100, strings.Repeat("x", n))
			want = append(want, line)
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
		if err := fs.WriteFile("f", []byte(sb.String()), -1); err != nil {
			return false
		}
		splits, err := fs.Splits("f")
		if err != nil {
			return false
		}
		var got []string
		for _, sp := range splits {
			it, err := fs.OpenLines(sp, -1)
			if err != nil {
				return false
			}
			for {
				line, ok := it.Next()
				if !ok {
					break
				}
				got = append(got, line)
			}
		}
		if len(got) != len(want) {
			return false
		}
		counts := map[string]int{}
		for _, l := range want {
			counts[l]++
		}
		for _, l := range got {
			counts[l]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitsGlob(t *testing.T) {
	fs, _ := newFS(t, 2, Config{BlockSize: 32})
	fs.WriteFile("in/a", make([]byte, 70), -1)
	fs.WriteFile("in/b", make([]byte, 40), -1)
	splits, err := fs.SplitsGlob("in/")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3+2 {
		t.Fatalf("%d splits, want 5", len(splits))
	}
}

func TestWriterAfterClose(t *testing.T) {
	fs, _ := newFS(t, 1, Config{})
	w := fs.Create("f", -1)
	w.Write([]byte("x"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("y")); err == nil {
		t.Error("write after close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestEmptyFile(t *testing.T) {
	fs, _ := newFS(t, 2, Config{})
	if err := fs.WriteFile("empty", nil, -1); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("empty", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("empty file read %d bytes", len(data))
	}
	splits, err := fs.Splits("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 0 {
		t.Errorf("empty file has %d splits", len(splits))
	}
}

// A writer cuts blocks at the block size whatever sizes it is written in,
// and — reusing its block buffer for the next block — a later block never
// shows through an earlier one.
func TestWriterBlockBoundariesAnyWriteSizes(t *testing.T) {
	const blockSize = 1000
	data := make([]byte, 2*blockSize+345)
	rand.New(rand.NewSource(5)).Read(data)
	for _, chunk := range []int{1, 7, 999, 1000, 1001, len(data)} {
		fs, _ := newFS(t, 2, Config{BlockSize: blockSize})
		w := fs.Create("f", 0)
		for off := 0; off < len(data); off += chunk {
			if _, err := w.Write(data[off:min(off+chunk, len(data))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var sizes []int64
		for _, b := range w.meta.blocks {
			sizes = append(sizes, b.Size)
		}
		if fmt.Sprint(sizes) != "[1000 1000 345]" {
			t.Errorf("chunk %d: blocks %v, want [1000 1000 345]", chunk, sizes)
		}
		got, err := fs.ReadFile("f", 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("chunk %d: read back differs", chunk)
		}
	}
}
