package datagen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// checkEdges holds z's guide lookup to the binary search on both sides of
// every cdf entry and of every guide bucket's edge i/len(guide), where a
// bucket wrongly taken as resolved would answer wrong on one side. It also
// holds each bucket to what its closed interval's ends say, since a walk
// from too low a start answers right, only slower.
func checkEdges(t *testing.T, name string, z *Zipf) {
	t.Helper()
	g := float64(len(z.guide))
	for i, k := range z.guide {
		lo, hi := searchCDF(z.cdf, float64(i)/g), searchCDF(z.cdf, float64(i+1)/g)
		want := int32(lo)
		if hi != lo {
			want = ^want
		}
		if k != want {
			t.Fatalf("%s: bucket %d holds %d, want %d (answers %d and %d at its ends)", name, i, k, want, lo, hi)
		}
	}
	edges := make([]float64, 0, len(z.cdf)+len(z.guide))
	edges = append(edges, z.cdf...)
	for i := range z.guide {
		edges = append(edges, float64(i)/float64(len(z.guide)))
	}
	for _, c := range edges {
		for _, u := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, 1)} {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := z.index(u), searchCDF(z.cdf, u); got != want {
				t.Fatalf("%s u=%v: guide gives %d, binary search %d", name, u, got, want)
			}
		}
	}
}

// TestZipfGuideMatchesBinarySearch: the guide-table lookup returns the
// binary search's index for random draws and at every edge checkEdges
// tries. The hand-made cdfs put an entry one ulp under a bucket edge, on
// it and one ulp over it, so the buckets either side of that edge are
// resolved or mixed by a single ulp.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	const draws = 1_000_000
	for _, s := range []float64{0.3, 1.0, 1.5} {
		for _, n := range []int{1, 2, 7, 1000, 20000} {
			z := NewZipf(rand.New(rand.NewSource(int64(n))), n, s)
			name := fmt.Sprintf("s=%v n=%d", s, n)
			if g := len(z.guide); g&(g-1) != 0 || g < guidePerItem*n {
				t.Fatalf("%s: %d guide buckets, want a power of two >= %d", name, g, guidePerItem*n)
			}
			checkEdges(t, name, z)
			if n != 1000 {
				continue
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < draws; i++ {
				if u := rng.Float64(); z.index(u) != searchCDF(z.cdf, u) {
					t.Fatalf("%s u=%v: guide gives %d, binary search %d", name, u, z.index(u), searchCDF(z.cdf, u))
				}
			}
		}
	}
	var resolved, mixed int
	for n := 2; n <= 32; n++ {
		// Evenly spaced entries off the item edges.
		even := make([]float64, n)
		for k := range even {
			even[k] = (float64(k) + 0.5) / float64(n)
		}
		even[n-1] = 1
		g := len(newZipfCDF(nil, even).guide)
		for i := 1; i < g; i++ {
			edge := float64(i) / float64(g)
			for _, at := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, 1)} {
				// The first entry at or past the edge moved to at.
				cdf := slices.Clone(even)
				cdf[searchCDF(cdf, edge)] = at
				z := newZipfCDF(nil, cdf)
				checkEdges(t, fmt.Sprintf("hand-made n=%d edge %d/%d at %v", n, i, g, at), z)
				for _, k := range z.guide {
					if k >= 0 {
						resolved++
					} else {
						mixed++
					}
				}
			}
		}
	}
	if resolved == 0 || mixed == 0 {
		t.Fatalf("the hand-made cdfs made %d resolved and %d mixed buckets, want both", resolved, mixed)
	}
	// Entries that share a value or a bucket, one at 0, and entries before
	// the last that already reach 1.
	for _, cdf := range [][]float64{
		{1}, {0, 1}, {0, 0, 1}, {0.25, 0.25, 1}, {0.1, 0.1001, 0.1002, 1},
		{0.5, 1, 1}, {0.5, 1, 1, 1}, {1, 1}, {math.Nextafter(1, 0), 1, 1},
	} {
		checkEdges(t, fmt.Sprintf("hand-made %v", cdf), newZipfCDF(nil, cdf))
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

// TestGeneratorOutputsAreStable holds Movies and WebGraph, which draw
// through NewZipf but have no reference generator of their own, and the
// other graph inputs, RMAT and CliqueTestGraph, to the SHA-256 of their
// output: a sampler change that moves any draw, or a writer change that
// moves any byte, moves a hash.
func TestGeneratorOutputsAreStable(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func() []byte
		want string
	}{
		{"Movies{Seed:7}", func() []byte { return Movies(MoviesConfig{Seed: 7}) },
			"7c47d61f6aa47349444a9f931aaed6294e36a7fc98ec446817b3cf0732d7156e"},
		{"Movies{Seed:11,...}", func() []byte {
			return Movies(MoviesConfig{Seed: 11, Movies: 2500, Users: 3000, Clusters: 6, RatingSkew: 1.2, PopularitySkew: 0.6})
		}, "856485657910a81467bbb1de39874612d16d8f97df0a66e66ab9594c5680baf5"},
		{"WebGraph{Seed:7}", func() []byte { return WebGraph(WebGraphConfig{Seed: 7}) },
			"656a0eeb5e4682f366e89df731fd62dfd399c45c8d33ff08cd18de9dcdc77618"},
		{"WebGraph{Seed:11,...}", func() []byte {
			return WebGraph(WebGraphConfig{Seed: 11, Pages: 20000, OutLinks: 5, Skew: 1.3})
		}, "bfdd95fdc2011eb6b7c33f265324f3ee223264a6722006fdca1b1ff4230a6a3b"},
		{"RMAT{Seed:7}", func() []byte { return RMAT(RMATConfig{Seed: 7}) },
			"34e1aedb057d665a82c90d88bf6efa61b6e49270afc276b85600254cf61e25cc"},
		{"RMAT{Seed:11,...}", func() []byte {
			return RMAT(RMATConfig{Seed: 11, Scale: 14, Edges: 30000, A: 0.45, B: 0.25, C: 0.2, D: 0.1})
		}, "737f8f5ca9b8046f8c324663016d89df231753a64aa1eda3b34c500c5a5fb32d"},
		{"CliqueTestGraph(5, 8)", func() []byte { return CliqueTestGraph(5, 8) },
			"e663375d139e9e1d721635118ade7869e277e0e008ae4d4fb9d2487312fb94ee"},
	} {
		sum := sha256.Sum256(c.gen())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.want)
		}
	}
}

var sinkDraws int

// BenchmarkZipf draws from the samplers the benchmark's inputs use: the
// movie generators' 150 users, WordCount's 4,000 words and PageRank's
// 6,000 pages.
func BenchmarkZipf(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		s    float64
	}{{"users150", 150, 0.8}, {"words4000", 4000, 1.0}, {"pages6000", 6000, 0.9}} {
		b.Run(c.name, func(b *testing.B) {
			z := NewZipf(rand.New(rand.NewSource(1)), c.n, c.s)
			for i := 0; i < b.N; i++ {
				sinkDraws += z.Next()
			}
		})
	}
}

// BenchmarkText generates the benchmark's WordCount input: 120,000 lines
// over 4,000 words.
func BenchmarkText(b *testing.B) {
	cfg := TextConfig{Seed: 1, Vocabulary: 4000, Lines: 120000}
	b.SetBytes(int64(len(Text(cfg))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDraws += len(Text(cfg))
	}
}

// BenchmarkMovies generates the benchmark's two movie inputs: K-Means'
// 36,004 movies of 17 ratings each and HistogramRatings' 80,000 movies
// over 512 latent clusters, both over 150 users.
func BenchmarkMovies(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  MoviesConfig
	}{
		{"kmeans", MoviesConfig{Seed: 1, Movies: 36004, Users: 150, Clusters: 4, MinRatings: 17, MaxRatings: 17}},
		{"histogram", MoviesConfig{Seed: 1, Movies: 80000, Users: 150, Clusters: 512}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(Movies(c.cfg))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkDraws += len(Movies(c.cfg))
			}
		})
	}
}
