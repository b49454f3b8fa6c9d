package datagen

import "testing"

// TestWebGraphAllocs is the allocation guard on the PageRank generator: it
// makes its output buffer, its stamp array, its Zipf tables and its random
// source, the same few objects at any size. A map per page and fmt per
// edge once made it ~73,000 allocations at 6,000 pages.
func TestWebGraphAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted in MemStats")
	}
	const maxAllocs = 8
	var counts []float64
	for _, pages := range []int{1000, 6000} {
		cfg := WebGraphConfig{Seed: 1, Pages: pages}
		counts = append(counts, testing.AllocsPerRun(20, func() { sinkGraph += len(WebGraph(cfg)) }))
	}
	if counts[0] != counts[1] || counts[1] > maxAllocs {
		t.Errorf("WebGraph makes %v allocations at 1,000 and %v at 6,000 pages, want the same at most %d", counts[0], counts[1], maxAllocs)
	}
}

var sinkGraph int

// BenchmarkWebGraph generates the benchmark's PageRank input size.
func BenchmarkWebGraph(b *testing.B) {
	cfg := WebGraphConfig{Seed: 1, Pages: 6000}
	b.SetBytes(int64(len(WebGraph(cfg))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph += len(WebGraph(cfg))
	}
}

func BenchmarkRMAT(b *testing.B) {
	cfg := RMATConfig{Seed: 1, Scale: 12}
	b.SetBytes(int64(len(RMAT(cfg))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph += len(RMAT(cfg))
	}
}
