package core

import (
	"fmt"
	"sync"
	"testing"
)

// Microbenchmarks for the two hottest engine loops (emit→bin and the
// partial-reduce fold) and the value codec. The pre-optimization
// implementations they were first measured against (whole-edge mutex,
// process-global codec lock, per-bin map grouping) are gone; their numbers
// are in EXPERIMENTS.md "Hot-path microbenchmarks (before/after)".

// benchEmit runs `workers` goroutines emitting interleaved keys on one
// edge buffer, the shape of a node's mappers all emitting concurrently.
func benchEmit(b *testing.B, workers, nodes int) {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	bins := newBinList(512)
	bins.Reserve(2 * nodes)
	buf := newBinBuffer(nodes, bins, 128<<10)
	perW := b.N / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				kv := KV{Key: keys[(w+i)%len(keys)], Value: int64(i)}
				size := kv.Size()
				if bin := buf.add((w+i)%nodes, kv, size); bin != nil {
					// A real emit hands the bin to sendBin; its consumer
					// releases it.
					bin.release()
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkEmitPath measures the per-edge output buffer under concurrent
// emitters — the lock every Emit crosses.
func BenchmarkEmitPath(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("sharded-%dw", workers), func(b *testing.B) {
			benchEmit(b, workers, 8)
		})
	}
}

// BenchmarkCodec measures EncodeValue/DecodeValue for int64 and string, the
// two types every benchmark's map outputs carry (a spilled float64 is one
// fixed word), and EncodeKV/DecodeKV for the two pairs DESIGN.md §5
// "internal/core" prices, with their encoded size as bytes/kv.
func BenchmarkCodec(b *testing.B) {
	values := []struct {
		name string
		v    any
	}{
		{"int64", int64(123456)},
		{"string", "movie:the-dataflow-strikes-back"},
	}
	for _, tc := range values {
		tc := tc
		b.Run("roundtrip/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var scratch []byte
			for i := 0; i < b.N; i++ {
				var err error
				scratch, err = EncodeValue(scratch[:0], tc.v)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := DecodeValue(scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, tc := range []struct {
		name string
		kv   KV
	}{
		{"terasort-row", KV{Key: "0123456789", Value: "00000000-payload"}},
		{"word-count", KV{Key: "dataflow", Value: int64(1)}},
	} {
		tc := tc
		b.Run("kv/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var scratch []byte
			for i := 0; i < b.N; i++ {
				var err error
				scratch, err = EncodeKV(scratch[:0], tc.kv)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := DecodeKV(scratch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(scratch)), "bytes/kv")
		})
	}
}

// benchPartialNode builds a single-node jobNode with a loader -> partial
// reduce graph so applyPartialBin runs against real flowlet state.
func benchPartialNode(b *testing.B) (*flowletState, func()) {
	b.Helper()
	cfg := Config{Workers: 4}
	nodes, cleanup := newTestCluster(b, 1, cfg)
	g := NewGraph("bench-partial")
	ld, err := g.AddLoader("load", &sliceLoader{})
	if err != nil {
		b.Fatal(err)
	}
	pr, err := g.AddPartialReduce("sum", sumPartial{})
	if err != nil {
		b.Fatal(err)
	}
	sk, err := g.AddSink("out", NewCollectSink())
	if err != nil {
		b.Fatal(err)
	}
	if err := g.Connect(ld, pr); err != nil {
		b.Fatal(err)
	}
	if err := g.Connect(pr, sk); err != nil {
		b.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		b.Fatal(err)
	}
	jn := newJobNode(nodes[0], g, 1, 1)
	return jn.flowlets[pr], cleanup
}

// BenchmarkPartialReduceStripes measures folding bins into striped
// partial-reduce state through the scratch-grouped applyPartialBin.
func BenchmarkPartialReduceStripes(b *testing.B) {
	kvs := make([]KV, 512)
	for i := range kvs {
		kvs[i] = KV{Key: fmt.Sprintf("key-%04d", i%997), Value: int64(1)}
	}
	bin := &Bin{KVs: kvs}
	b.Run("scratch", func(b *testing.B) {
		fs, cleanup := benchPartialNode(b)
		defer cleanup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fs.applyPartialBin(bin); err != nil {
				b.Fatal(err)
			}
		}
	})
}
