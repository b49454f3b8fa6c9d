// Package datagen generates the paper's benchmark inputs, scaled down but
// with the same formats and statistical shapes: PUMA-style movie/rating
// data (K-Means, Classification, HistogramMovies, HistogramRatings),
// HiBench-style Zipfian text (WordCount, NaiveBayes) and Zipfian-linked
// web graphs (PageRank), and R-MAT graphs (K-Cliques).
//
// All generators are deterministic functions of their seed.
package datagen

import (
	"math"
	"math/rand"
)

// Zipf draws integers in [0, n) with P(k) proportional to 1/(k+1)^s,
// deterministic under its seed. It is a small rejection-free inverse-CDF
// sampler (the stdlib rand.Zipf needs s > 1; the benchmarks commonly use
// s values at or below 1, so we build our own table), searched through a
// guide table (Chen and Asau): guide[i] is the first index whose cdf
// entry reaches i/len(guide), so a draw starts next to its answer instead
// of bisecting the whole table. The table has guidePerItem buckets per
// item: with one, a draw in a long s = 1 tail still walked up to about
// nine entries.
type Zipf struct {
	rng   *rand.Rand
	cdf   []float64
	guide []int32
}

// guidePerItem is the guide table's buckets per cdf entry.
const guidePerItem = 8

// NewZipf creates a sampler over n items with exponent s (> 0).
func NewZipf(rng *rand.Rand, n int, s float64) *Zipf {
	if n < 1 {
		n = 1
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1.0 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{rng: rng, cdf: cdf, guide: guideFor(cdf)}
}

// guideFor builds the guide table over a normalised cdf.
func guideFor(cdf []float64) []int32 {
	guide := make([]int32, guidePerItem*len(cdf))
	k := 0
	for i := range guide {
		for k < len(cdf)-1 && cdf[k] < float64(i)/float64(len(guide)) {
			k++
		}
		guide[i] = int32(k)
	}
	return guide
}

// Next draws one sample.
func (z *Zipf) Next() int { return z.index(z.rng.Float64()) }

// index returns the first cdf entry >= u (the last entry when none is),
// for u in [0, 1). The guide names u's bucket's first candidate; u*g may
// round up into the next bucket, so the walk also steps back while the
// entry before it still reaches u.
func (z *Zipf) index(u float64) int {
	n, g := len(z.cdf), len(z.guide)
	k := int(z.guide[min(int(u*float64(g)), g-1)])
	for k < n-1 && z.cdf[k] < u {
		k++
	}
	for k > 0 && z.cdf[k-1] >= u {
		k--
	}
	return k
}

// N returns the sampler's domain size.
func (z *Zipf) N() int { return len(z.cdf) }
