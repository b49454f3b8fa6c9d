package datagen

import (
	"math/rand"
	"strconv"
)

// WebGraphConfig controls hyperlink-graph generation for PageRank. Link
// targets follow a Zipfian distribution (the paper: "automatically
// generated Web data whose hyperlinks follow the Zipfian distribution",
// HiBench's PageRank generator).
type WebGraphConfig struct {
	Seed     int64
	Pages    int
	OutLinks int     // average out-degree
	Skew     float64 // Zipf exponent over target popularity
}

// FillDefaults replaces zero fields.
func (c *WebGraphConfig) FillDefaults() {
	if c.Pages <= 0 {
		c.Pages = 1000
	}
	if c.OutLinks <= 0 {
		c.OutLinks = 8
	}
	if c.Skew <= 0 {
		c.Skew = 0.9
	}
}

// WebGraph generates an edge list, one "src dst" pair per line. Every page
// has at least one out-link (no dangling pages), duplicate edges are
// suppressed per source.
func WebGraph(cfg WebGraphConfig) []byte {
	cfg.FillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := NewZipf(rng, cfg.Pages, cfg.Skew)
	// seen[dst] == src+1 marks dst as linked from src: one array for the
	// whole run, never cleared.
	seen := make([]int, cfg.Pages)
	out := make([]byte, 0, cfg.Pages*cfg.OutLinks*(2*digits(cfg.Pages-1)+2))
	for src := 0; src < cfg.Pages; src++ {
		n := 1 + rng.Intn(cfg.OutLinks*2-1) // mean ≈ OutLinks
		linked := false
		for i := 0; i < n; i++ {
			dst := z.Next()
			if dst == src || seen[dst] == src+1 {
				continue
			}
			seen[dst] = src + 1
			linked = true
			out = appendEdge(out, src, dst)
		}
		if !linked {
			out = appendEdge(out, src, (src+1)%cfg.Pages)
		}
	}
	return out
}

// appendEdge appends the edge list line "u v\n".
func appendEdge(out []byte, u, v int) []byte {
	out = strconv.AppendInt(out, int64(u), 10)
	out = append(out, ' ')
	out = strconv.AppendInt(out, int64(v), 10)
	return append(out, '\n')
}

// digits returns the decimal digits of n >= 0 (1 for n < 0), an edge
// list's bytes per vertex id at most.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// RMATConfig controls R-MAT graph generation (the generator package the
// paper uses for the K-Cliques input). The defaults are the conventional
// (a,b,c,d) = (0.57, 0.19, 0.19, 0.05).
type RMATConfig struct {
	Seed       int64
	Scale      int // 2^Scale vertices
	Edges      int
	A, B, C, D float64
}

// FillDefaults replaces zero fields.
func (c *RMATConfig) FillDefaults() {
	if c.Scale <= 0 {
		c.Scale = 10
	}
	if c.Edges <= 0 {
		c.Edges = 8 << c.Scale
	}
	if c.A == 0 && c.B == 0 && c.C == 0 && c.D == 0 {
		c.A, c.B, c.C, c.D = 0.57, 0.19, 0.19, 0.05
	}
}

// RMAT generates an undirected edge list ("u v" per line, u < v,
// deduplicated, no self loops). The requested edge count is an upper
// bound; collisions shrink it slightly, as in the reference generator.
func RMAT(cfg RMATConfig) []byte {
	cfg.FillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := 1 << cfg.Scale
	type edge struct{ u, v int }
	seen := make(map[edge]bool, cfg.Edges)
	out := make([]byte, 0, cfg.Edges*(2*digits(n-1)+2))
	for i := 0; i < cfg.Edges; i++ {
		u, v := 0, 0
		for bit := n >> 1; bit >= 1; bit >>= 1 {
			r := rng.Float64()
			switch {
			case r < cfg.A:
				// upper-left: neither bit set
			case r < cfg.A+cfg.B:
				v |= bit
			case r < cfg.A+cfg.B+cfg.C:
				u |= bit
			default:
				u |= bit
				v |= bit
			}
		}
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		e := edge{u, v}
		if seen[e] {
			continue
		}
		seen[e] = true
		out = appendEdge(out, u, v)
	}
	return out
}

// CliqueTestGraph builds a small deterministic graph with known cliques
// for correctness tests: a clique of size k on vertices [0,k) plus a
// sparse ring over the rest.
func CliqueTestGraph(k, extra int) []byte {
	edges := max(k*(k-1)/2, 0) + max(extra, 0)
	out := make([]byte, 0, edges*(2*digits(k+extra)+2))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			out = appendEdge(out, i, j)
		}
	}
	for i := 0; i < extra; i++ {
		a := k + i
		b := k + (i+1)%extra
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		out = appendEdge(out, a, b)
	}
	return out
}
