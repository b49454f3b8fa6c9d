package main

import (
	"fmt"

	"github.com/hamr-go/hamr/internal/core"
)

// multiset is an order-independent digest of a bag of lines: the line
// count plus the wrapping sum of a mixed 64-bit hash of each line. Both
// engines deliver results in scheduling-dependent order, so the digest
// must not depend on it; duplicates still count.
type multiset struct {
	n   int64
	sum uint64
}

func (m *multiset) add(line string) {
	// splitmix64 finaliser over FNV-1a: FNV alone mixes its last bytes
	// weakly, and the sum must not let two small edits cancel.
	h := core.HashKey(line)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	m.n++
	m.sum += h
}

func (m multiset) String() string { return fmt.Sprintf("%d:%016x", m.n, m.sum) }

// countDigest digests a key -> count table (wordcount, histograms).
func countDigest(counts map[string]int64) string {
	var d multiset
	for k, v := range counts {
		d.add(fmt.Sprintf("%s\t%d", k, v))
	}
	return d.String()
}

// rankDigest digests PageRank ranks to a fixed tolerance: the engines sum
// contributions in different (and scheduling-dependent) orders, so ranks
// agree to ~1e-15, not bit for bit.
func rankDigest(ranks map[string]float64) string {
	var d multiset
	for page, r := range ranks {
		d.add(fmt.Sprintf("%s\t%.6f", page, r))
	}
	return d.String()
}
