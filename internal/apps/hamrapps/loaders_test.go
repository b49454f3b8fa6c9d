package hamrapps

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/storage"
)

// stageOracle is DistributeLocalText as it was first written: split the
// text into line strings, join each part's lines back and add the '\n'.
// It returns the file map and each file's bytes.
func stageOracle(nodes int, name string, data []byte, parts int) (map[int][]string, map[string][]byte) {
	if parts <= 0 {
		parts = nodes
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	per := (len(lines) + parts - 1) / parts
	files := make(map[int][]string)
	contents := make(map[string][]byte)
	for p := 0; p < parts; p++ {
		lo := p * per
		if lo >= len(lines) {
			break
		}
		hi := min(lo+per, len(lines))
		node := p % nodes
		fname := fmt.Sprintf("input/%s-part-%04d", name, p)
		contents[fname] = []byte(strings.Join(lines[lo:hi], "\n") + "\n")
		files[node] = append(files[node], fname)
	}
	return files, contents
}

// checkStaging stages a private copy of data on c, then overwrites that
// copy before reading back: the file map, each disk's files under the name
// and every file's bytes must be the oracle's. The staged files are
// removed again, so c can take the same name next.
func checkStaging(t testing.TB, c *cluster.Cluster, name string, data []byte, parts int) {
	t.Helper()
	wantFiles, wantBytes := stageOracle(c.NumNodes(), name, data, parts)
	in := bytes.Clone(data)
	files, err := DistributeLocalText(c, name, in, parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] = 'X'
	}
	if !reflect.DeepEqual(files, wantFiles) {
		t.Fatalf("%q parts=%d nodes=%d: files %v, oracle %v", data, parts, c.NumNodes(), files, wantFiles)
	}
	for node := 0; node < c.NumNodes(); node++ {
		listed := c.Disk(node).List("input/" + name + "-part-")
		if len(listed) != len(wantFiles[node]) {
			t.Fatalf("%q parts=%d: node %d holds %v, oracle %v", data, parts, node, listed, wantFiles[node])
		}
		for _, f := range wantFiles[node] {
			got, err := c.ReadLocalText(node, f)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBytes[f]) {
				t.Fatalf("%q parts=%d nodes=%d: %s = %q, oracle %q", data, parts, c.NumNodes(), f, got, wantBytes[f])
			}
			if err := c.Disk(node).Remove(f); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// stagingCases covers the line-splitting edges: no text, no lines but
// newlines, a missing or repeated final newline, blank lines inside, more
// parts than lines and the parts <= 0 default.
var stagingCases = []struct {
	data  string
	parts int
}{
	{"", 4},
	{"", 0},
	{"\n", 3},
	{"\n\n\n", 2},
	{"one", 3},
	{"one\n", 1},
	{"a\nb\nc", 2},
	{"a\nb\nc\n", 2},
	{"a\nb\nc\n\n\n", 2},
	{"a\n\nb\n\n\nc\nd\n", 3},
	{"\n\na\nb\n", 2},
	{"a\nb\nc\nd\ne\nf\ng", 3},
	{"a\nb\n", 7},
	{"a\r\nb \n c\n", 2},
	{"a\nb\nc\nd\ne\n", 0},
	{"a\nb\nc\nd\ne\n", -3},
}

// randomText is up to 60 short lines, some blank, with zero to three
// trailing newlines.
func randomText(rng *rand.Rand) []byte {
	var b []byte
	for l := rng.Intn(60); l > 0; l-- {
		for w := rng.Intn(4); w > 0; w-- {
			b = append(b, "ab c\r"[rng.Intn(5)])
		}
		b = append(b, '\n')
	}
	if len(b) > 0 && rng.Intn(2) == 0 {
		b = b[:len(b)-1]
	}
	for i := rng.Intn(4); i > 0; i-- {
		b = append(b, '\n')
	}
	return b
}

// TestDistributeLocalTextMatchesLineSplit holds the one-pass staging to
// the line-split oracle on the edge cases and on seeded random inputs,
// across one to five nodes and parts from -1 to 10.
func TestDistributeLocalTextMatchesLineSplit(t *testing.T) {
	clusters := make([]*cluster.Cluster, 5)
	for i := range clusters {
		clusters[i] = newCluster(t, i+1)
	}
	for _, tc := range stagingCases {
		for _, c := range clusters {
			checkStaging(t, c, "case", []byte(tc.data), tc.parts)
		}
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 1000; i++ {
		checkStaging(t, clusters[rng.Intn(5)], "rand", randomText(rng), rng.Intn(12)-1)
	}
}

func FuzzDistributeLocalText(f *testing.F) {
	for _, tc := range stagingCases {
		f.Add([]byte(tc.data), int8(tc.parts), uint8(3))
	}
	clusters := make([]*cluster.Cluster, 5)
	for i := range clusters {
		clusters[i] = newCluster(f, i+1)
	}
	f.Fuzz(func(t *testing.T, data []byte, parts int8, nodes uint8) {
		if len(data) > 64<<10 {
			data = data[:64<<10]
		}
		checkStaging(t, clusters[int(nodes)%5], "fuzz", data, int(parts)%16)
	})
}

// TestDistributeLocalTextAllocs: staging allocates the disk pages that
// hold the input and little else, not a copy of the input per step.
func TestDistributeLocalTextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted in MemStats")
	}
	c := newCluster(t, 8)
	data := datagen.Text(datagen.TextConfig{Seed: 1, Lines: 60000})
	const slack = 64 << 10
	limit := uint64(1.1*float64(len(data))) + slack
	var best uint64
	for round := 0; round < 3; round++ {
		// A new name each round: overwriting a file would hand its pages
		// back for the next one to reuse.
		name := fmt.Sprintf("wc%d", round)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := DistributeLocalText(c, name, data, 16); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; round == 0 || got < best {
			best = got
		}
	}
	t.Logf("%d input bytes, %d allocated (%.2fx)", len(data), best, float64(best)/float64(len(data)))
	if best > limit {
		t.Errorf("staging %d bytes allocated %d bytes, want <= %d (1.1x + %d)", len(data), best, limit, slack)
	}
}

// diskCtx is a node's flowlet context reduced to what a loader asks of it:
// its node, its disk, and an Emit that counts the lines.
type diskCtx struct {
	core.Context
	disk  storage.Disk
	lines int
}

func (c *diskCtx) Node() int               { return 0 }
func (c *diskCtx) Service(name string) any { return c.disk }
func (c *diskCtx) Emit(kv core.KV) error   { c.lines++; return nil }

// TestLocalTextLoaderBufferFitsTheSplit: a split under 64 KiB reads
// through a scanner buffer of its own size, not the 64 KiB one a larger
// split gets. Loading one costs the lines it emits and that buffer — about
// twice the split — where a 64 KiB buffer alone would pass the bound.
// Bytes are what it measures: a buffer is one allocation of any size.
func TestLocalTextLoaderBufferFitsTheSplit(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	data := datagen.Movies(datagen.MoviesConfig{Seed: 1, Movies: 100, MinRatings: 17, MaxRatings: 17})
	disk := storage.NewMemDisk(0)
	w, err := disk.Create("input/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := bytes.Count(data, []byte{'\n'})
	l := &LocalTextLoader{}
	sp := core.Split{Payload: localTextSplit{file: "input/f"}}
	ctx := &diskCtx{disk: disk}
	const loads = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < loads; i++ {
		ctx.lines = 0
		if err := l.Load(sp, ctx); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if ctx.lines != want {
		t.Fatalf("loaded %d lines, the split holds %d", ctx.lines, want)
	}
	limit := 2*uint64(len(data)) + 8<<10
	if limit >= 64<<10 {
		t.Fatalf("a %d-byte split cannot tell its buffer from a 64 KiB one", len(data))
	}
	if got := (m1.TotalAlloc - m0.TotalAlloc) / loads; got > limit {
		t.Errorf("loading a %d-byte split allocated %d bytes, want <= %d (twice the split + 8 KiB)", len(data), got, limit)
	}
}

// BenchmarkDistributeLocalText stages a wordcount-size input (8.4 MB) in
// 16 parts on 8 nodes. The names repeat, so from the second call on each
// file's overwrite hands its pages to the next.
func BenchmarkDistributeLocalText(b *testing.B) {
	c := newCluster(b, 8)
	data := datagen.Text(datagen.TextConfig{Seed: 1, Vocabulary: 4000, Lines: 120000})
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DistributeLocalText(c, "wc", data, 16); err != nil {
			b.Fatal(err)
		}
	}
}
