package extsort

import (
	"fmt"
	"io"
	"testing"

	"github.com/hamr-go/hamr/internal/compress"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/storage"
)

// The spill benchmarks measure the write-read cycle of one run file on
// the two byte shapes the paper's workloads spill: Zipfian text words
// (WordCount/NaiveBayes intermediates, highly repetitive) and
// TeraSort-style rows (hex keys plus fixed-width payloads, moderately
// compressible). See EXPERIMENTS.md "Compression microbenchmarks".

// zipfSpillRecs draws keys from the HiBench-style Zipfian vocabulary, the
// key distribution a WordCount map task spills.
func zipfSpillRecs(n int) []testRec {
	text := datagen.Text(datagen.TextConfig{Seed: 7, Vocabulary: 1000, WordsPerLine: 1, Lines: n})
	recs := make([]testRec, 0, n)
	var word []byte
	for _, b := range text {
		if b == '\n' {
			recs = append(recs, testRec{key: string(word), seq: int64(len(recs))})
			word = word[:0]
			continue
		}
		word = append(word, b)
	}
	SortStable(recs, testCmp)
	return recs
}

// teraSpillRecs builds TeraSort-style rows: a 10-hex-digit pseudo-random
// key per record (the same generator shape as internal/bench's teraLines).
func teraSpillRecs(n int) []testRec {
	recs := make([]testRec, n)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range recs {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		recs[i] = testRec{key: fmt.Sprintf("%010x-payload", state&0xFFFFFFFFFF), seq: int64(i)}
	}
	SortStable(recs, testCmp)
	return recs
}

func benchSpill(b *testing.B, recs []testRec, cc compress.Config) {
	disk := storage.NewMemDisk(0)
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeRun(disk, "bench-run", testFormat{}, recs, cc); err != nil {
			b.Fatal(err)
		}
		rr, err := OpenRunC(disk, "bench-run", testFormat{}, cc)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := rr.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		rr.Close()
		if n != len(recs) {
			b.Fatalf("read %d records, wrote %d", n, len(recs))
		}
		bytes, _ = disk.Size("bench-run")
	}
	b.ReportMetric(float64(bytes), "disk-bytes/run")
}

func BenchmarkSpillUncompressed(b *testing.B) {
	b.Run("zipf", func(b *testing.B) { benchSpill(b, zipfSpillRecs(20000), compress.Config{}) })
	b.Run("tera", func(b *testing.B) { benchSpill(b, teraSpillRecs(20000), compress.Config{}) })
}

func BenchmarkSpillCompressed(b *testing.B) {
	lz := compress.Config{Codec: compress.LZ{}}
	flate := compress.Config{Codec: compress.Flate{}}
	b.Run("zipf-lz", func(b *testing.B) { benchSpill(b, zipfSpillRecs(20000), lz) })
	b.Run("tera-lz", func(b *testing.B) { benchSpill(b, teraSpillRecs(20000), lz) })
	b.Run("zipf-flate", func(b *testing.B) { benchSpill(b, zipfSpillRecs(20000), flate) })
	b.Run("tera-flate", func(b *testing.B) { benchSpill(b, teraSpillRecs(20000), flate) })
}
