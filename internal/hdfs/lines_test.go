package hdfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/faults"
)

// cutSplits tiles file name of the given size into splits at the cut
// offsets that fall inside it, whatever the block layout.
func cutSplits(name string, size int64, cuts []int64) []Split {
	cuts = slices.Clone(cuts)
	slices.Sort(cuts)
	var out []Split
	start := int64(0)
	for _, c := range slices.Compact(cuts) {
		if c > start && c < size {
			out = append(out, Split{File: name, Offset: start, Length: c - start})
			start = c
		}
	}
	if start < size {
		out = append(out, Split{File: name, Offset: start, Length: size - start})
	}
	return out
}

// checkTiling writes data with the given block size and requires the
// lines of every split, taken in split order — the file's block splits,
// then splits cut at each line end and at random offsets — to be
// scanLines(data).
func checkTiling(t testing.TB, data string, bs int64, seed int64) {
	t.Helper()
	fs, _ := newFS(t, 2, Config{BlockSize: bs})
	if err := fs.WriteFile("f", []byte(data), -1); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(data))
	var lineEnds, random []int64
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' && len(lineEnds) < 64 {
			lineEnds = append(lineEnds, int64(i)+1)
		}
	}
	if size > 1 {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			random = append(random, 1+rng.Int63n(size-1))
		}
	}
	want := scanLines([]byte(data))
	for _, tiling := range []struct {
		name   string
		splits []Split
	}{
		{"blocks", blocks},
		{"line ends", cutSplits("f", size, lineEnds)},
		{"random", cutSplits("f", size, random)},
	} {
		var got []string
		for _, sp := range tiling.splits {
			lines, err := splitLines(t, fs, sp, 0)
			if err != nil {
				t.Fatalf("%s split at %d: %v", tiling.name, sp.Offset, err)
			}
			got = append(got, lines...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("block size %d, %s splits: %d lines, want %d\ngot  %q\nwant %q",
				bs, tiling.name, len(got), len(want), clip(got), clip(want))
		}
	}
}

// clip shortens a line list for a failure message.
func clip(ls []string) []string {
	out := make([]string, 0, min(len(ls), 8))
	for _, l := range ls[:min(len(ls), 8)] {
		if len(l) > 24 {
			l = l[:24] + "…"
		}
		out = append(out, l)
	}
	return out
}

// lineInputs are the table's files, by name, for block size bs.
func lineInputs(bs int) map[string]string {
	short := string(shortLines(2*bs + 7))
	return map[string]string{
		"empty lines":         "\n\nfirst\n\n\nsecond\n\n" + short + "\n\n",
		"only newlines":       strings.Repeat("\n", 3*bs+1),
		"longer than a fetch": "a\n" + strings.Repeat("L", 2*readAhead+bs+3) + "\nb\n" + strings.Repeat("M", readAhead) + "\n",
		"ends on a block":     strings.Repeat("a", bs-1) + "\n" + strings.Repeat("b", bs-1) + "\nc\n",
		"no trailing newline": short + "tail without newline",
		"one byte":            "x",
		"empty file":          "",
	}
}

// Every split's lines, together, are the file's lines under Hadoop's
// rule, whatever the block size and wherever the splits are cut: at block
// boundaries, right after a newline (a line ending exactly on a split
// boundary) or mid-line.
func TestOpenLinesTilesTheFile(t *testing.T) {
	for _, bs := range []int{16, 17, 64, 1000, 4 << 10} {
		for name, data := range lineInputs(bs) {
			t.Run(fmt.Sprintf("%s/%d", name, bs), func(t *testing.T) {
				checkTiling(t, data, int64(bs), int64(bs))
			})
		}
	}
}

// FuzzOpenLines holds random files, block sizes from 16 B to 4 KiB and
// random split cuts to the same reference.
func FuzzOpenLines(f *testing.F) {
	for _, bs := range []int{16, 64, 4 << 10} {
		for _, data := range lineInputs(bs) {
			f.Add([]byte(data), uint16(bs), int64(bs))
		}
	}
	f.Add([]byte("a\n\nbb\nccc\n"), uint16(0), int64(1))
	f.Fuzz(func(t *testing.T, data []byte, bs uint16, seed int64) {
		if len(data) > 64<<10 {
			data = data[:64<<10]
		}
		checkTiling(t, string(data), 16+int64(bs)%(4<<10-15), seed)
	})
}

// A returned line is a view of its own block and stays what it was: after
// the iterator reads on through slack (one read-ahead buffer, overwritten
// fetch after fetch), after a ReadFile result over the same block is
// overwritten, and after the split is read again.
func TestLineViewsStayPut(t *testing.T) {
	const bs = 16 << 10
	short := string(shortLines(bs - 300))
	for name, data := range map[string]string{
		// Split 0's last line starts in its block and runs three fetches
		// into the next one.
		"straddles": short + strings.Repeat("S", 300+3*readAhead) + "\n" + short,
		// Split 0's block ends on a newline, so its last line lies wholly
		// in slack, over three fetches.
		"starts on the boundary": short + strings.Repeat("p", bs-len(short)-1) + "\n" +
			strings.Repeat("T", 2*readAhead+5) + "\n" + short,
	} {
		t.Run(name, func(t *testing.T) {
			fs, _ := newFS(t, 2, Config{BlockSize: bs})
			if err := fs.WriteFile("f", []byte(data), -1); err != nil {
				t.Fatal(err)
			}
			splits, _ := fs.Splits("f")
			lines, err := splitLines(t, fs, splits[0], 0)
			if err != nil {
				t.Fatal(err)
			}
			if end := lineEnd(lines); end <= bs+readAhead {
				t.Fatalf("last line ends at %d: it does not read through slack", end)
			}
			want := scanLines([]byte(data))[:len(lines)]
			check := func(after string) {
				t.Helper()
				if !slices.Equal(lines, want) {
					t.Fatalf("returned lines changed after %s", after)
				}
			}
			check("reading through slack")
			whole, err := fs.ReadFile("f", 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range whole {
				whole[i] = 'X'
			}
			check("overwriting a ReadFile result")
			if _, err := splitLines(t, fs, splits[0], 0); err != nil {
				t.Fatal(err)
			}
			check("reading the split again")
		})
	}
}

// TestOpenLinesAllocs: a split's lines cost its block, read once into a
// slice the lines view, and a constant number of small objects — not a
// copy per line. Measured: 1.00 B per split byte and 8 mallocs per
// split; the iterator that copied each line through a bufio.Reader cost
// 2.14 B per byte and 5,017 mallocs, about one per line.
func TestOpenLinesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted in MemStats")
	}
	const bs = 256 << 10
	fs, _ := newFS(t, 1, Config{BlockSize: bs})
	data := shortLines(bs - 100)
	if err := fs.WriteFile("f", data, -1); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("f")
	if len(splits) != 1 {
		t.Fatalf("%d splits, want 1", len(splits))
	}
	read := func() (mallocs, bytes uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		it, err := fs.OpenLines(splits[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			if _, ok := it.Next(); !ok {
				break
			}
			n++
		}
		runtime.ReadMemStats(&m1)
		if it.Err() != nil || n < 1000 {
			t.Fatalf("%d lines, %v", n, it.Err())
		}
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	read()
	mallocs, total := read()
	perByte := float64(total) / float64(len(data))
	t.Logf("one split: %d mallocs, %.3f B per split byte (bounds 16, 1.1)", mallocs, perByte)
	if mallocs > 16 || perByte > 1.1 {
		t.Errorf("reading a split allocated %d objects, %.3f B per split byte", mallocs, perByte)
	}
}

// TestWriterBlockBufferHome: a writer's block buffer goes back to the
// filesystem's list however the writer ends — Close, Abort, a Write whose
// block flush fails on every replica, a Close whose final flush does — and
// the next file is written in it.
func TestWriterBlockBufferHome(t *testing.T) {
	const bs = 256
	big := bytes.Repeat([]byte("x"), 3*bs+bs/2)
	for _, tc := range []struct {
		name string
		end  func(fs *FileSystem, inj *faults.Injector) error
	}{
		{"close", func(fs *FileSystem, _ *faults.Injector) error { return fs.WriteFile("a", big, -1) }},
		{"abort", func(fs *FileSystem, _ *faults.Injector) error {
			w := fs.Create("a", -1)
			if _, err := w.Write(big); err != nil {
				return err
			}
			w.Abort()
			return nil
		}},
		{"failed write", func(fs *FileSystem, inj *faults.Injector) error {
			w := fs.Create("a", -1)
			inj.Arm()
			_, err := w.Write(big)
			inj.Disarm()
			if !faults.IsInjected(err) {
				return fmt.Errorf("write with every disk failing = %v, want the injected fault", err)
			}
			if err := fs.Buffers().Home(); err != nil {
				return fmt.Errorf("after the failed Write, before Close: %w", err)
			}
			if err := w.Close(); !faults.IsInjected(err) {
				return fmt.Errorf("Close after the failed Write = %v, want its fault", err)
			}
			return nil
		}},
		{"failed close", func(fs *FileSystem, inj *faults.Injector) error {
			w := fs.Create("a", -1)
			if _, err := w.Write(big[:bs/2]); err != nil {
				return err
			}
			inj.Arm()
			defer inj.Disarm()
			if err := w.Close(); !faults.IsInjected(err) {
				return fmt.Errorf("close with every disk failing = %v, want the injected fault", err)
			}
			w.Abort()
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, _, inj := faultFS(t, 3, Config{BlockSize: bs, Replication: 3},
				faults.Config{Seed: 2, DiskWrite: 1}, nil)
			if err := tc.end(fs, inj); err != nil {
				t.Fatal(err)
			}
			oneHome := func(when string) {
				t.Helper()
				if err := fs.Buffers().Home(); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				if s := fs.writeBufs.Stats(); s.Made != 1 {
					t.Fatalf("%s: %d buffers made, want the one", when, s.Made)
				}
			}
			oneHome("after the first writer")
			if err := fs.WriteFile("b", big, -1); err != nil {
				t.Fatal(err)
			}
			oneHome("after a second file")
		})
	}
}

// TestWriterReusesBlockBuffer: a file written after another of its size
// allocates no block buffer, only its metadata. Measured: 312 B for a
// 64 KiB file; 65,848 B when every writer made its own buffer.
func TestWriterReusesBlockBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted in MemStats")
	}
	const bs = 64 << 10
	fs, _ := newFS(t, 1, Config{BlockSize: bs})
	data := bytes.Repeat([]byte("y"), bs)
	write := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := fs.WriteFile("f", data, 0); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if err := fs.Remove("f"); err != nil { // its pages go back to the disk
			t.Fatal(err)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	write()
	got := write()
	t.Logf("second file: %d B allocated (bound %d)", got, bs/16)
	if got > bs/16 {
		t.Errorf("writing a %d-byte file after another allocated %d B", bs, got)
	}
}
