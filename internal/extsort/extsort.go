// Package extsort is the single external-sort substrate shared by both
// engines: a budget-aware run builder that buffers typed records in
// recycled chunks and spills them to a node-local disk as ordered run
// files, its twin for records that are already bytes (SortBuffer), whose
// runs are sectioned by partition (sections.go), a loser-tree k-way merge
// that streams runs (on disk or in memory) back in global order, and a
// multi-pass merge honoring a merge factor (Hadoop's io.sort.factor, on
// its Merger's schedule).
//
// The substrate deliberately owns no cost model of its own: every byte
// it moves goes through the storage.Disk handed to it, so modeled disk
// charges (seek latency, throughput, capacity) attach exactly where
// they did when each engine carried its own spill code. Metrics are
// reported through explicit hooks (the builders' OnSpill, the onPass
// callback of MergeToFactor) so each caller keeps its own counter names
// and byte-accounting conventions — spill totals and merge pass counts
// are bit-identical to the pre-extsort implementations.
//
// Clients differ only in their record type, ordering and byte format:
//
//   - core's reduce accumulator: records are (key, value) pairs ordered
//     by key, in chunks from the node's chunk list, spilling when the
//     job's MemoryManager denies a reservation;
//   - mapreduce's map task: records are encoded (partition, key) and value
//     bytes in a SortBuffer, ordered by the key bytes, spilling past
//     io.sort.mb into sectioned runs, combined at spill and merge time,
//     multi-pass merged under io.sort.factor into one sectioned output;
//     its reduce task merges the same bytes from the plain runs it fetched
//     its sections into (MergeRuns).
package extsort

import (
	"errors"
	"io"
	"slices"
)

// Compare is a three-way comparator: negative when a orders before b,
// zero when equal, positive when after.
type Compare[T any] func(a, b T) int

// SortStable stably sorts s by cmp. Records that compare equal keep
// their arrival order, which is what makes run files preserve
// within-key ordering.
func SortStable[T any](s []T, cmp Compare[T]) { slices.SortStableFunc(s, cmp) }

// Source yields records in nondecreasing order; Next returns io.EOF
// when exhausted. Run files (RunReader) and sorted in-memory slices
// (SliceSource) are both sources, so one merge serves spilled and
// resident data alike.
type Source[T any] interface {
	Next() (T, error)
}

type sliceSource[T any] struct {
	recs []T
	i    int
}

func (s *sliceSource[T]) Next() (T, error) {
	if s.i >= len(s.recs) {
		var zero T
		return zero, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// SliceSource adapts an already-sorted slice to a merge Source.
func SliceSource[T any](recs []T) Source[T] { return &sliceSource[T]{recs: recs} }

// Budget is the memory-budget protocol consulted by a RunBuilder before
// admitting a record (core.MemoryManager implements it). A denied
// Reserve makes the builder spill its buffer first and then force the
// reservation — a single record larger than the whole budget must still
// be admitted or the job cannot progress.
type Budget interface {
	Reserve(n int64) bool
	ForceReserve(n int64)
	Release(n int64)
}

// ErrNoDisk is returned when a spill is required but the builder has no
// disk to spill to.
var ErrNoDisk = errors.New("extsort: memory exhausted and no spill disk configured")
