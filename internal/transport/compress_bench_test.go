package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/compress"
	"github.com/hamr-go/hamr/internal/metrics"
)

// benchShuffleCompress pushes b.N word-shaped shuffle messages through a
// coalescer (compressed or not) and reports the wire bytes the fabric
// charged, so the benchmark shows the CPU cost and the byte saving of
// KindBatchZ side by side. See EXPERIMENTS.md "Compression
// microbenchmarks".
func benchShuffleCompress(b *testing.B, cc compress.Config) {
	reg := metrics.NewRegistry()
	inner := NewInMemNetwork(CostModel{}, reg)
	if cc.Enabled() {
		inner.Use(Env{Decode: &compress.Meter{}})
	}
	co := NewCoalescer(inner, CoalescerConfig{
		MaxBytes: 16 << 10, MaxMsgs: 64, MaxAge: 500 * time.Microsecond, Compress: cc,
	})
	var delivered atomic.Int64
	done := make(chan struct{})
	target := int64(b.N)
	if err := co.Register(0, func(Message) {
		if delivered.Add(1) == target {
			close(done)
		}
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := co.Send(shuffleMsg(i, 0)); err != nil {
			b.Fatal(err)
		}
	}
	if err := co.Flush(); err != nil {
		b.Fatal(err)
	}
	<-done
	b.StopTimer()
	if n := b.N; n > 0 {
		b.ReportMetric(float64(reg.Counter("net.bytes").Value())/float64(n), "wire-B/msg")
	}
	co.Close()
	inner.Close()
}

func BenchmarkShuffleCompressed(b *testing.B) {
	b.Run("lz", func(b *testing.B) {
		benchShuffleCompress(b, compress.Config{Codec: compress.LZ{}, MinBytes: 64})
	})
	b.Run("flate", func(b *testing.B) {
		benchShuffleCompress(b, compress.Config{Codec: compress.Flate{}, MinBytes: 64})
	})
	b.Run("off", func(b *testing.B) {
		benchShuffleCompress(b, compress.Config{})
	})
}
