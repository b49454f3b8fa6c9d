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
// guide table (Chen and Asau) of at least guidePerItem buckets per item.
// The bucket count is a power of two, so u*len(guide) is exact and bucket
// i holds exactly the draws u in [i/len(guide), (i+1)/len(guide)). A
// bucket whose every draw has one answer holds that index; any other
// holds ^k, k being the answer at its lower edge, from which the draw
// walks cdf forward.
type Zipf struct {
	rng   *rand.Rand
	cdf   []float64
	guide []int32
}

// guidePerItem is the fewest guide buckets per cdf entry: with one, a draw
// in a long s = 1 tail walked up to about nine entries.
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
	return newZipfCDF(rng, cdf)
}

// newZipfCDF builds the sampler and its guide table over a normalised cdf.
// Bucket i spans the closed interval [i/g, (i+1)/g] at build time: when
// both of its ends have the same answer, so does every draw between them.
// Those are the buckets no cdf entry but the last lies in, and they hold
// that answer; the bucket entry k is the first to lie in, floor(cdf[k]*g)
// (exact, g being a power of two), holds ^k. So the build walks cdf once
// and fills the buckets between.
func newZipfCDF(rng *rand.Rand, cdf []float64) *Zipf {
	g := 1
	for g < guidePerItem*len(cdf) {
		g <<= 1
	}
	guide := make([]int32, g)
	i := 0 // the first bucket not yet filled
	for k := range cdf[:len(cdf)-1] {
		b := int(cdf[k] * float64(g)) // the bucket cdf[k] lies in; g if it is 1
		for ; i < b; i++ {
			guide[i] = int32(k)
		}
		if i == b && b < g {
			guide[i] = ^int32(k)
			i++
		}
	}
	for ; i < g; i++ {
		guide[i] = int32(len(cdf) - 1)
	}
	return &Zipf{rng: rng, cdf: cdf, guide: guide}
}

// Next draws one sample.
func (z *Zipf) Next() int { return z.index(z.rng.Float64()) }

// index returns the first cdf entry >= u (the last entry when none is),
// for u in [0, 1).
func (z *Zipf) index(u float64) int {
	k := z.guide[int(u*float64(len(z.guide)))]
	if k >= 0 {
		return int(k)
	}
	i, last := int(^k), len(z.cdf)-1
	for i < last && z.cdf[i] < u {
		i++
	}
	return i
}

// N returns the sampler's domain size.
func (z *Zipf) N() int { return len(z.cdf) }
