package main

import (
	"fmt"
	"math"
	"sort"
)

// summary describes one metric's samples. A timing is reported as its
// median plus the highest percentile that still has ten samples beyond
// it (choosing-metrics §1); at n=20 that percentile is the median itself.
type summary struct {
	Value    float64 `json:"value"` // median
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	PHi      float64 `json:"p_hi"`
	PHiLabel string  `json:"p_hi_label"`
	// AllEqual is set when every sample was the same value — the test a
	// count must pass before two builds may be compared on it exactly.
	AllEqual bool `json:"all_equal"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the "exclusive" method of Python's statistics.quantiles —
// the one the acceptance rule is stated in: position p·(n+1) on the
// sorted samples, linearly interpolated, clamped to the ends.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// highPercentile returns the highest percentile p with at least ten
// samples beyond it, never below the median.
func highPercentile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

func summarize(xs []float64, unit string) summary {
	s := sorted(xs)
	out := summary{Unit: unit, N: len(s)}
	if len(s) == 0 {
		return out
	}
	p := highPercentile(len(s))
	out.Value = quantile(s, 0.5)
	out.Q1, out.Q3 = quantile(s, 0.25), quantile(s, 0.75)
	out.PHi = quantile(s, p)
	out.PHiLabel = fmt.Sprintf("p%g", math.Round(p*1000)/10)
	out.AllEqual = s[0] == s[len(s)-1]
	return out
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Value)
}
