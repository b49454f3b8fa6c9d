package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"
)

// Microbenchmarks for the two hottest engine loops (emit→bin and the
// partial-reduce fold) and the value codec. Each family carries a
// "-baseline" variant reproducing the pre-optimization implementation
// (whole-edge mutex, process-global gob lock, per-bin map grouping) so
// before/after is measured in one run; EXPERIMENTS.md records the
// numbers.

// emitBuffer abstracts the sharded binBuffer and the legacy single-mutex
// implementation for side-by-side benchmarking.
type emitBuffer interface {
	add(dest int, kv KV, size int64) *Bin
}

// legacyBinBuffer is the pre-change implementation: one mutex guarding
// every destination slot of an edge, with kv.Size() recomputed inside
// the lock, each slot grown from nil and handed off in a fresh Bin. Kept as
// the benchmark baseline.
type legacyBinBuffer struct {
	mu      sync.Mutex
	slots   []legacySlot
	maxKVs  int
	maxByte int64
}

type legacySlot struct {
	kvs   []KV
	bytes int64
}

func newLegacyBinBuffer(numNodes, maxKVs int, maxBytes int64) *legacyBinBuffer {
	return &legacyBinBuffer{slots: make([]legacySlot, numNodes), maxKVs: maxKVs, maxByte: maxBytes}
}

func (b *legacyBinBuffer) add(dest int, kv KV, _ int64) *Bin {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &b.slots[dest]
	s.kvs = append(s.kvs, kv)
	s.bytes += kv.Size()
	if len(s.kvs) >= b.maxKVs || s.bytes >= b.maxByte {
		bin := &Bin{KVs: s.kvs, Bytes: s.bytes}
		s.kvs, s.bytes = nil, 0
		return bin
	}
	return nil
}

// benchEmit runs `workers` goroutines emitting interleaved keys on one
// edge buffer, the shape of a node's mappers all emitting concurrently.
func benchEmit(b *testing.B, workers, nodes int, mk func() emitBuffer) {
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	buf := mk()
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
					// releases it (a no-op for the baseline's bins).
					bin.release()
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkEmitPath measures the per-edge output buffer under concurrent
// emitters — the lock every Emit crosses. Acceptance: sharded ≥ 1.5x the
// single-mutex baseline at 8 workers.
func BenchmarkEmitPath(b *testing.B) {
	const nodes = 8
	for _, workers := range []int{1, 8} {
		workers := workers
		b.Run(fmt.Sprintf("sharded-%dw", workers), func(b *testing.B) {
			benchEmit(b, workers, nodes, func() emitBuffer {
				return newBinBuffer(nodes, &binList{size: 512, max: 2 * nodes}, 128<<10)
			})
		})
		b.Run(fmt.Sprintf("single-mutex-baseline-%dw", workers), func(b *testing.B) {
			benchEmit(b, workers, nodes, func() emitBuffer { return newLegacyBinBuffer(nodes, 512, 128<<10) })
		})
	}
}

type benchGobValue struct {
	Name  string
	Count int64
	Pos   []float64
}

func init() { RegisterValue(benchGobValue{}) }

// legacy gob path: one process-global mutex around every encode and
// every decode, fresh bytes.Buffer per value — the pre-change
// implementation, round-tripped for a fair comparison with the pooled
// path.
var legacyGobMu sync.Mutex

func legacyGobRoundTrip(b *testing.B, v any) {
	var buf bytes.Buffer
	legacyGobMu.Lock()
	err := gob.NewEncoder(&buf).Encode(&v)
	legacyGobMu.Unlock()
	if err != nil {
		b.Fatal(err)
	}
	var out any
	legacyGobMu.Lock()
	err = gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out)
	legacyGobMu.Unlock()
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCodec measures EncodeValue/DecodeValue for the shapes the
// benchmarks actually emit, plus the gob fallback — sequential and with 8
// concurrent encoders (where the old global mutex serialized).
func BenchmarkCodec(b *testing.B) {
	values := []struct {
		name string
		v    any
	}{
		{"int64", int64(123456)},
		{"string", "movie:the-dataflow-strikes-back"},
		{"float64-slice", []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		{"int-slice", []int{9, 8, 7, 6, 5, 4, 3, 2, 1}},
		{"map-string-int64", map[string]int64{"a": 1, "bb": 2, "ccc": 3, "dddd": 4}},
		{"gob-fallback", benchGobValue{Name: "x", Count: 42, Pos: []float64{1, 2, 3}}},
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
	gobVal := benchGobValue{Name: "y", Count: 7, Pos: []float64{3, 1, 4, 1, 5}}
	b.Run("parallel-gob/pooled", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			var scratch []byte
			for pb.Next() {
				var err error
				scratch, err = EncodeValue(scratch[:0], gobVal)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := DecodeValue(scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("parallel-gob/global-mutex-baseline", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				legacyGobRoundTrip(b, gobVal)
			}
		})
	})
}

// benchPartialNode builds a single-node jobNode with a loader -> partial
// reduce graph so applyPartialBin runs against real flowlet state.
func benchPartialNode(b *testing.B, stripes int) (*flowletState, func()) {
	b.Helper()
	cfg := Config{Workers: 4, PartialStripes: stripes}
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

// legacyApplyPartialBin is the pre-change fold: a map[int][]KV allocated
// and grown per bin. Model costs are off in the benchmark, so the work
// measured is exactly the harness overhead the rewrite removes.
func legacyApplyPartialBin(fs *flowletState, bin *Bin) error {
	nstripes := len(fs.stripes)
	var batches map[int][]KV
	if nstripes == 1 {
		batches = map[int][]KV{0: bin.KVs}
	} else {
		batches = make(map[int][]KV)
		for _, kv := range bin.KVs {
			idx := int(HashKey(kv.Key) % uint64(nstripes))
			batches[idx] = append(batches[idx], kv)
		}
	}
	for idx, kvs := range batches {
		if err := fs.applyStripeBatch(&fs.stripes[idx], kvs); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkPartialReduceStripes measures folding bins into striped
// partial-reduce state, scratch-grouped vs the per-bin map baseline.
func BenchmarkPartialReduceStripes(b *testing.B) {
	mkBin := func(n int) *Bin {
		kvs := make([]KV, n)
		for i := range kvs {
			kvs[i] = KV{Key: fmt.Sprintf("key-%04d", i%997), Value: int64(1)}
		}
		return &Bin{KVs: kvs}
	}
	for _, impl := range []struct {
		name  string
		apply func(*flowletState, *Bin) error
	}{
		{"scratch", (*flowletState).applyPartialBin},
		{"map-baseline", legacyApplyPartialBin},
	} {
		impl := impl
		b.Run(impl.name, func(b *testing.B) {
			fs, cleanup := benchPartialNode(b, 64)
			defer cleanup()
			bin := mkBin(512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := impl.apply(fs, bin); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
