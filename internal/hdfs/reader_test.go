package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/transport"
)

// countingDisk wraps a Disk and counts the readers it opens and closes, so
// a test can tell that none was left open.
type countingDisk struct {
	storage.Disk
	opens, closes atomic.Int64
}

func (d *countingDisk) Open(name string) (io.ReadSeekCloser, error) {
	d.opens.Add(1)
	r, err := d.Disk.Open(name)
	if err != nil {
		return nil, err
	}
	return &countedReader{ReadSeekCloser: r, d: d}, nil
}

type countedReader struct {
	io.ReadSeekCloser
	d      *countingDisk
	closed bool
}

func (r *countedReader) Close() error {
	if !r.closed {
		r.closed = true
		r.d.closes.Add(1)
	}
	return r.ReadSeekCloser.Close()
}

// countingFS builds a filesystem over counting in-memory disks.
func countingFS(t testing.TB, nodes int, cfg Config) (*FileSystem, []*countingDisk) {
	t.Helper()
	counting := make([]*countingDisk, nodes)
	disks := make([]storage.Disk, nodes)
	for i := range disks {
		counting[i] = &countingDisk{Disk: storage.NewMemDisk(0)}
		disks[i] = counting[i]
	}
	fs, err := New(disks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs, counting
}

func totalOpens(disks []*countingDisk) int64 {
	var n int64
	for _, d := range disks {
		n += d.opens.Load()
	}
	return n
}

func mustBlocks(t *testing.T, fs *FileSystem, name string) []Block {
	t.Helper()
	bs, err := fs.Blocks(name)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// scanLines is the sequential reference: strings.Split of the file. The
// empty piece after a final newline, or of an empty file, is no line. A
// split sequence whose lines, in order, equal these rebuilds the file: a
// gap or a line read twice shows as a difference.
func scanLines(data []byte) []string {
	if len(data) == 0 {
		return nil
	}
	pieces := strings.Split(string(data), "\n")
	if data[len(data)-1] == '\n' {
		pieces = pieces[:len(pieces)-1]
	}
	return pieces
}

// lineEnd is the position, counted from the start of a split that skips no
// partial line (split 0), where the last of its lines ends.
func lineEnd(lines []string) int64 {
	var n int64
	for _, l := range lines {
		n += int64(len(l)) + 1
	}
	return n - 1
}

// splitLines iterates one split to exhaustion from node at.
func splitLines(t testing.TB, fs *FileSystem, sp Split, at transport.NodeID) ([]string, error) {
	t.Helper()
	it, err := fs.OpenLines(sp, at)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []string
	for {
		line, ok := it.Next()
		if !ok {
			return out, it.Err()
		}
		out = append(out, line)
	}
}

func shortLines(total int) []byte {
	var buf bytes.Buffer
	for i := 0; buf.Len() < total; i++ {
		fmt.Fprintf(&buf, "%06d %s\n", i, strings.Repeat("w", i%90))
	}
	return buf.Bytes()
}

// A split reads its own block and then only as much of the next one as its
// last line needs: over a whole file of short lines every byte moves once,
// plus at most one read-ahead unit per block boundary, and only those units
// cross the network. A reader on a node that holds no replica pays exactly
// its own block and one read-ahead unit.
func TestSplitsReadTheirBytesOnce(t *testing.T) {
	const nodes, blockSize, blocks = 4, 16 << 10, 12
	reg := metrics.NewRegistry()
	disks := make([]storage.Disk, nodes)
	for i := range disks {
		disks[i] = storage.NewCostDisk(storage.NewMemDisk(0), storage.CostModel{}, reg)
	}
	fs, err := New(disks, Config{BlockSize: blockSize, Substrate: substrate.Handle{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	data := shortLines(blocks*blockSize - 100)
	if err := fs.WriteFile("f", data, -1); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits("f")
	if err != nil || len(splits) != blocks {
		t.Fatalf("%d splits, %v; want %d", len(splits), err, blocks)
	}
	var got []string
	for _, sp := range splits {
		lines, err := splitLines(t, fs, sp, sp.Hosts[0])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, lines...)
	}
	if want := scanLines(data); !slices.Equal(got, want) {
		t.Fatalf("splits yielded %d lines, a sequential scan %d (or lines differ)", len(got), len(want))
	}
	size, slack := int64(len(data)), int64((blocks-1)*readAhead)
	if v := reg.Counter("disk.read.bytes").Value(); v < size || v > size+slack {
		t.Errorf("disk.read.bytes = %d for a %d-byte file, want at most %d more", v, size, slack)
	}
	if v := reg.Counter("hdfs.bytes.local").Value(); v != size {
		t.Errorf("hdfs.bytes.local = %d, want the file's %d", v, size)
	}
	remote := reg.Counter("hdfs.bytes.remote").Value()
	if remote == 0 || remote > slack {
		t.Errorf("hdfs.bytes.remote = %d, want within (0, %d]", remote, slack)
	}

	far := transport.NodeID(0)
	for slices.Contains(splits[0].Hosts, far) || slices.Contains(splits[1].Hosts, far) {
		far++
	}
	if _, err := splitLines(t, fs, splits[0], far); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("hdfs.bytes.remote").Value() - remote; v != blockSize+readAhead {
		t.Errorf("split 0 read from node %d moved %d remote bytes, want %d", far, v, blockSize+readAhead)
	}
}

// The splits' lines, in order, are those of a sequential scan whatever the
// geometry:
// a line longer than a block (read-ahead unit), a line that starts exactly
// on a block boundary, a file without a trailing newline.
func TestSplitLinesMatchSequentialScan(t *testing.T) {
	for _, bs := range []int{64, 8 << 10} {
		filler := string(shortLines(bs/2 + 10))
		for name, data := range map[string]string{
			"long line":           filler + strings.Repeat("L", 2*bs+bs/2) + "\n" + filler,
			"starts on boundary":  strings.Repeat("a", bs-1) + "\n" + "on the boundary\n" + strings.Repeat("b", bs-17) + "\n" + filler,
			"no trailing newline": filler + filler + filler + "tail without newline",
			"ends on boundary":    strings.Repeat("a", bs-1) + "\n" + strings.Repeat("b", bs-1) + "\n",
		} {
			fs, _ := newFS(t, 3, Config{BlockSize: int64(bs)})
			if err := fs.WriteFile("f", []byte(data), -1); err != nil {
				t.Fatal(err)
			}
			splits, _ := fs.Splits("f")
			if len(splits) < 2 {
				t.Fatalf("%s/%d: %d splits", name, bs, len(splits))
			}
			var got []string
			for _, sp := range splits {
				lines, err := splitLines(t, fs, sp, sp.Hosts[0])
				if err != nil {
					t.Fatalf("%s/%d: %v", name, bs, err)
				}
				got = append(got, lines...)
			}
			want := scanLines([]byte(data))
			if len(got) != len(want) {
				t.Fatalf("%s/%d: %d lines, want %d", name, bs, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%d: line %d = %d bytes, want %d bytes",
						name, bs, i, len(got[i]), len(want[i]))
				}
			}
		}
	}
}

// onlyBlock arms a read fault on one block's replica file.
type onlyBlock struct {
	name      string
	failAfter int64
}

func (p onlyBlock) CreateFault(string) (int64, error) { return -1, nil }
func (p onlyBlock) OpenFault(name string) (int64, error) {
	if name == p.name {
		return p.failAfter, errors.New("injected read fault")
	}
	return -1, nil
}

// slackFS stores a three-block file at replication 2 over four nodes —
// block 0 on nodes {0,1}, block 1 on {2,3} — whose split 0 ends in a line
// reaching 9000 bytes (three read-ahead units) into block 1. A reader on
// node 0 therefore has block 1's replica on node 2 as its first choice and
// the one on node 3 as its second. wrap, if set, replaces node 2's disk.
func slackFS(t *testing.T, inj *faults.Injector, wrap func(blk1 string, d storage.Disk) storage.Disk) (fs *FileSystem, disks []storage.Disk, reg *metrics.Registry, split0 Split, want []string) {
	t.Helper()
	const blockSize = 16 << 10
	head := shortLines(blockSize - 1000)
	data := append(head, strings.Repeat("S", blockSize-len(head)+9000)+"\n"...)
	data = append(data, shortLines(blockSize)...)
	reg = metrics.NewRegistry()
	disks = make([]storage.Disk, 4)
	for i := range disks {
		disks[i] = storage.NewMemDisk(0)
	}
	if wrap != nil {
		// Block IDs count up from zero per filesystem.
		disks[2] = wrap(blockName("blk_000001"), disks[2])
	}
	fs, err := New(disks, Config{BlockSize: blockSize, Replication: 2, Substrate: substrate.Handle{Faults: inj, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("f", data, -1); err != nil {
		t.Fatal(err)
	}
	blocks := mustBlocks(t, fs, "f")
	if got := fmt.Sprintf("%v %v %s", blocks[0].Replicas, blocks[1].Replicas, blocks[1].ID); got != "[0 1] [2 3] blk_000001" {
		t.Fatalf("unexpected layout: %s", got)
	}
	splits, _ := fs.Splits("f")
	// Split 0's lines are those that start at or before its end.
	for off, l := int64(0), scanLines(data); len(l) > 0 && off <= blockSize; l = l[1:] {
		want = append(want, l[0])
		off += int64(len(l[0])) + 1
	}
	return fs, disks, reg, splits[0], want
}

// truncate rewrites a block replica at half its length.
func truncate(t *testing.T, d storage.Disk, name string) {
	t.Helper()
	size, err := d.Size(name)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := d.Create(name)
	w.Write(make([]byte, size/2))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSlackFailsOverToSecondReplica(t *testing.T) {
	// A seed whose one dead node is node 2.
	var inj *faults.Injector
	for s := int64(1); s < 256 && inj == nil; s++ {
		probe := faults.New(faults.Config{Seed: s, DeadNodes: 1}, 4, metrics.NewRegistry())
		if set := probe.DeadNodeSet(); len(set) == 1 && set[0] == 2 {
			inj = probe
		}
	}
	if inj == nil {
		t.Fatal("no seed kills node 2")
	}
	for name, c := range map[string]struct {
		inj   *faults.Injector
		wrap  func(string, storage.Disk) storage.Disk
		spoil func(t *testing.T, disks []storage.Disk)
	}{
		"first replica dead": {inj: inj},
		"first replica truncated": {spoil: func(t *testing.T, disks []storage.Disk) {
			truncate(t, disks[2], blockName("blk_000001"))
		}},
		// The first unit comes from node 2, which then fails; node 3 takes
		// over at offset 4096.
		"first replica fails mid-read": {wrap: func(blk1 string, d storage.Disk) storage.Disk {
			return storage.NewFaultyDisk(d, onlyBlock{name: blk1, failAfter: readAhead + 100})
		}},
	} {
		fs, disks, reg, sp, want := slackFS(t, c.inj, c.wrap)
		if c.spoil != nil {
			c.spoil(t, disks)
		}
		if c.inj != nil {
			c.inj.Arm()
		}
		got, err := splitLines(t, fs, sp, 0)
		if c.inj != nil {
			c.inj.Disarm()
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d lines, last %d bytes; want %d lines, last %d bytes", name,
				len(got), len(got[len(got)-1]), len(want), len(want[len(want)-1]))
		}
		if v := reg.Counter("hdfs.failover.reads").Value(); v != 1 {
			t.Errorf("%s: hdfs.failover.reads = %d, want 1", name, v)
		}
	}
}

func TestSlackWithNoReadableReplicaIsAnError(t *testing.T) {
	fs, disks, _, sp, want := slackFS(t, nil, nil)
	truncate(t, disks[2], blockName("blk_000001"))
	if err := disks[3].Remove(blockName("blk_000001")); err != nil {
		t.Fatal(err)
	}
	got, err := splitLines(t, fs, sp, 0)
	if err == nil || !strings.Contains(err.Error(), "no readable replica") {
		t.Fatalf("err = %v, want no readable replica", err)
	}
	// Every whole line before the straddling one, and no piece of that.
	if !slices.Equal(got, want[:len(want)-1]) {
		t.Errorf("yielded %d lines (last %d bytes), want the %d whole ones", len(got), len(got[len(got)-1]), len(want)-1)
	}
}

// No replica stays open behind an iterator: not after Next has reported the
// end, and not after a Close that came first.
func TestLineIteratorLeavesNoReplicaOpen(t *testing.T) {
	const blockSize = 16 << 10
	fs, disks := countingFS(t, 3, Config{BlockSize: blockSize})
	if err := fs.WriteFile("f", shortLines(4*blockSize), -1); err != nil {
		t.Fatal(err)
	}
	open := func() int64 {
		var n int64
		for _, d := range disks {
			n += d.opens.Load() - d.closes.Load()
		}
		return n
	}
	splits, _ := fs.Splits("f")
	for _, sp := range splits {
		if _, err := splitLines(t, fs, sp, sp.Hosts[0]); err != nil {
			t.Fatal(err)
		}
	}
	if totalOpens(disks) < 2*int64(len(splits))-1 || open() != 0 {
		t.Fatalf("after exhaustion: %d opens, %d still open", totalOpens(disks), open())
	}

	it, err := fs.OpenLines(splits[0], splits[0].Hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	// Split 0 skips no partial line, so a line's end is the bytes counted
	// from its start.
	for end := int64(-1); end < blockSize; {
		line, ok := it.Next()
		if !ok {
			t.Fatal("split ended before its straddling line")
		}
		end += int64(len(line)) + 1
	}
	if open() != 1 {
		t.Fatalf("%d replicas open inside the slack, want 1", open())
	}
	it.Close()
	it.Close()
	if open() != 0 {
		t.Errorf("%d replicas open after Close", open())
	}
	if _, ok := it.Next(); ok || it.Err() != nil {
		t.Errorf("Next after Close = %v, Err %v; want false, nil", ok, it.Err())
	}
}
