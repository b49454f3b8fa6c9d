package datagen

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// searchCDF is the sampler's plain inverse-CDF lookup: a binary search
// for the first cdf entry >= u, the last entry when none is.
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesBinarySearch: the guide-table walk returns the
// binary search's index for random draws and on both sides of every cdf
// entry, where a bucket edge that rounds the wrong way would show.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	const draws = 1_000_000
	for _, s := range []float64{0.3, 1.0, 1.5} {
		for _, n := range []int{1, 2, 7, 1000, 20000} {
			z := NewZipf(rand.New(rand.NewSource(int64(n))), n, s)
			check := func(u float64) {
				if got, want := z.index(u), searchCDF(z.cdf, u); got != want {
					t.Fatalf("s=%v n=%d u=%v: guide gives %d, binary search %d", s, n, u, got, want)
				}
			}
			for _, c := range z.cdf {
				for _, u := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, 1)} {
					if u >= 0 && u < 1 {
						check(u)
					}
				}
			}
			if n != 1000 {
				continue
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < draws; i++ {
				check(rng.Float64())
			}
		}
	}
}

// textReference and docsReference are the generators as they were written
// before the vocabulary table and the guide table: one fmt.Sprintf and one
// binary search per word.
func textReference(cfg TextConfig) []byte {
	cfg.FillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := NewZipf(rng, cfg.Vocabulary, cfg.Skew)
	var sb strings.Builder
	for l := 0; l < cfg.Lines; l++ {
		for w := 0; w < cfg.WordsPerLine; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "w%05d", searchCDF(z.cdf, rng.Float64()))
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func docsReference(cfg DocsConfig) []byte {
	cfg.FillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := NewZipf(rng, cfg.Vocabulary, cfg.Skew)
	var sb strings.Builder
	for d := 0; d < cfg.Docs; d++ {
		label := rng.Intn(cfg.Labels)
		fmt.Fprintf(&sb, "class%02d\t", label)
		for w := 0; w < cfg.WordsPerDoc; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "w%05d", (searchCDF(z.cdf, rng.Float64())+label*37)%cfg.Vocabulary)
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func TestTextAndDocsMatchReferenceGenerators(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, cfg := range []TextConfig{
			{Seed: seed},
			{Seed: seed, Vocabulary: 120000, Lines: 300, Skew: 0.3},
			{Seed: seed, Vocabulary: 50, WordsPerLine: 3, Lines: 2000, Skew: 1.5},
		} {
			if got, want := Text(cfg), textReference(cfg); !bytes.Equal(got, want) {
				t.Errorf("Text(%+v) differs from the reference generator (%d bytes, reference %d)", cfg, len(got), len(want))
			}
		}
		for _, cfg := range []DocsConfig{
			{Seed: seed},
			{Seed: seed, Labels: 12, Vocabulary: 3000, WordsPerDoc: 40, Docs: 200, Skew: 0.8},
		} {
			if got, want := Docs(cfg), docsReference(cfg); !bytes.Equal(got, want) {
				t.Errorf("Docs(%+v) differs from the reference generator (%d bytes, reference %d)", cfg, len(got), len(want))
			}
		}
	}
}
