package extsort

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"github.com/hamr-go/hamr/internal/storage"
)

// loserTree selects the minimum head across k sources in O(log k)
// comparisons per record — replacing the O(k) linear scans and the
// container/heap merges the engines used before. Ties are broken by
// source index (lower wins), so records from earlier runs drain first
// and the merge is stable with respect to run order.
type loserTree[T any] struct {
	cmp  Compare[T]
	srcs []Source[T]
	cur  []T
	done []bool
	// node[1..k-1] hold the loser of the match played at each internal
	// node; node[0] holds the overall winner. Leaves are implicit at
	// indices k..2k-1 (leaf k+i is source i).
	node []int
	k    int
}

func newLoserTree[T any](sources []Source[T], cmp Compare[T]) (*loserTree[T], error) {
	k := len(sources)
	t := &loserTree[T]{
		cmp:  cmp,
		srcs: sources,
		cur:  make([]T, k),
		done: make([]bool, k),
		node: make([]int, k),
		k:    k,
	}
	for i, s := range sources {
		rec, err := s.Next()
		if err == io.EOF {
			t.done[i] = true
			continue
		}
		if err != nil {
			return nil, err
		}
		t.cur[i] = rec
	}
	// Play the tournament bottom-up: win[x] is the winner of the
	// subtree rooted at x; each internal node stores its loser.
	win := make([]int, 2*k)
	for i := 0; i < k; i++ {
		win[k+i] = i
	}
	for x := k - 1; x >= 1; x-- {
		a, b := win[2*x], win[2*x+1]
		if t.beats(b, a) {
			win[x], t.node[x] = b, a
		} else {
			win[x], t.node[x] = a, b
		}
	}
	t.node[0] = win[1]
	return t, nil
}

// beats reports whether source a's head orders strictly before source
// b's. Exhausted sources lose to everything.
func (t *loserTree[T]) beats(a, b int) bool {
	if t.done[a] {
		return false
	}
	if t.done[b] {
		return true
	}
	c := t.cmp(t.cur[a], t.cur[b])
	return c < 0 || (c == 0 && a < b)
}

// pop returns the winning source index, or -1 when all are exhausted.
// The caller consumes cur[w], advances source w, and calls fix(w).
func (t *loserTree[T]) pop() int {
	w := t.node[0]
	if t.done[w] {
		return -1
	}
	return w
}

// advance refills source w's head and replays its leaf-to-root path.
func (t *loserTree[T]) advance(w int) error {
	rec, err := t.srcs[w].Next()
	if err == io.EOF {
		t.done[w] = true
		var zero T
		t.cur[w] = zero
	} else if err != nil {
		return err
	} else {
		t.cur[w] = rec
	}
	for x := (t.k + w) / 2; x >= 1; x /= 2 {
		if t.beats(t.node[x], w) {
			t.node[x], w = w, t.node[x]
		}
	}
	t.node[0] = w
	return nil
}

// Merge streams records from the sorted sources in cmp order, calling
// emit with each record and the index of the source it came from. Ties
// break toward the lower source index. A single source streams straight
// through without building a tree.
func Merge[T any](sources []Source[T], cmp Compare[T], emit func(rec T, src int) error) error {
	switch len(sources) {
	case 0:
		return nil
	case 1:
		// Single-run fast path: no comparisons needed at all.
		for {
			rec, err := sources[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := emit(rec, 0); err != nil {
				return err
			}
		}
	}
	t, err := newLoserTree(sources, cmp)
	if err != nil {
		return err
	}
	for {
		w := t.pop()
		if w < 0 {
			return nil
		}
		if err := emit(t.cur[w], w); err != nil {
			return err
		}
		if err := t.advance(w); err != nil {
			return err
		}
	}
}

// MergeGrouped merges the sources and calls fn once per group of
// consecutive records for which sameGroup reports true against the
// group's first record (nil means cmp == 0). The group slice is reused
// between calls; fn must copy anything it retains.
func MergeGrouped[T any](sources []Source[T], cmp Compare[T], sameGroup func(a, b T) bool, fn func(group []T) error) error {
	if sameGroup == nil {
		sameGroup = func(a, b T) bool { return cmp(a, b) == 0 }
	}
	var group []T
	err := Merge(sources, cmp, func(rec T, _ int) error {
		if len(group) > 0 && !sameGroup(group[0], rec) {
			if err := fn(group); err != nil {
				return err
			}
			clear(group)
			group = group[:0]
		}
		group = append(group, rec)
		return nil
	})
	if err != nil {
		return err
	}
	if len(group) > 0 {
		return fn(group)
	}
	return nil
}

// compareKeys orders encoded records by their key bytes — the order a
// Format's byte-order contract makes equal to its Compare.
func compareKeys(a, b storage.Record) int { return bytes.Compare(a.Key, b.Key) }

// MergeToFactor reduces a run list to at most factor runs by merging
// windows of adjacent runs into intermediate runs, each pass rereading and
// rewriting its window on disk — Hadoop's io.sort.factor, on Hadoop's
// Merger schedule: the first pass takes (n-1) mod (factor-1) + 1 runs when
// that is not one, so that every later pass takes a full factor and the
// last leaves exactly factor; and a pass takes the lightest window there
// is, so an intermediate is merged again only once nothing smaller is left.
// The count of passes is the least there can be, ceil((n-factor)/(factor-1)).
// A window is adjacent runs and its intermediate takes its place in the
// list, so records with equal keys still leave in the order of the
// original list whatever was merged first.
//
// Runs are merged as bytes: encoded keys are compared with bytes.Compare
// (see Format's byte-order contract) and each record is written back as
// read, so a pass decodes nothing and allocates nothing per record.
// intermName names the pass-i intermediate run; onPass (may be nil) is
// invoked once per completed pass, which is where callers count merge
// passes. Input runs consumed by a pass are removed from disk; the returned
// list, the caller's when no pass was needed, replaces them with the
// intermediates. Intermediates are written with the first run's Prefix;
// all runs in the list must share it.
func MergeToFactor(disk storage.Disk, runs []Run, factor int,
	intermName func(pass int) string, onPass func()) ([]Run, error) {

	if factor <= 1 || len(runs) <= factor {
		return runs, nil
	}
	runs = slices.Clone(runs)
	sizes := make([]int64, len(runs))
	for i, run := range runs {
		var err error
		if sizes[i], err = disk.Size(run.Name); err != nil {
			return nil, fmt.Errorf("extsort: merge runs: %w", err)
		}
	}
	take := (len(runs)-1)%(factor-1) + 1
	if take == 1 {
		take = factor
	}
	for pass := 0; len(runs) > factor; pass++ {
		// The lightest window of take adjacent runs, the first of them
		// when several weigh the same.
		var sum int64
		for _, sz := range sizes[:take] {
			sum += sz
		}
		at, least := 0, sum
		for i := take; i < len(sizes); i++ {
			if sum += sizes[i] - sizes[i-take]; sum < least {
				at, least = i-take+1, sum
			}
		}
		window := runs[at : at+take]
		merged, err := mergeRuns(disk, window, intermName(pass))
		if err != nil {
			return nil, err
		}
		for _, run := range window {
			_ = disk.Remove(run.Name) // a leftover costs space, not the merge
		}
		size, err := disk.Size(merged.Name)
		if err != nil {
			return nil, fmt.Errorf("extsort: merge runs: %w", err)
		}
		runs = slices.Replace(runs, at, at+take, merged)
		sizes = slices.Replace(sizes, at, at+take, size)
		if onPass != nil {
			onPass()
		}
		take = factor
	}
	return runs, nil
}

// mergeRuns merges the batch into one new run named name, sectioned by the
// batch's prefix (plain runs have none, and what they merge into reads as
// either kind).
func mergeRuns(disk storage.Disk, batch []Run, name string) (Run, error) {
	w, err := CreateSectioned(disk, name, batch[0].Prefix)
	if err != nil {
		return Run{}, err
	}
	err = MergeRuns(disk, batch, w.Write)
	merged, cerr := w.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		return Run{}, fmt.Errorf("extsort: merge runs: %w", err)
	}
	return merged, nil
}

// MergeRuns streams the records of the runs to emit as
// bytes, merged in the order of bytes.Compare on their encoded keys, equal
// keys from the earlier run first. key and value live in the source reader's
// scratch until that reader's next Next, which the tree calls only after
// emit has returned: emit must not keep them.
func MergeRuns(disk storage.Disk, runs []Run, emit func(key, value []byte) error) error {
	type source interface {
		Source[storage.Record]
		io.Closer
	}
	sources := make([]Source[storage.Record], 0, len(runs))
	open := make([]io.Closer, 0, len(runs))
	defer func() {
		for _, src := range open {
			src.Close()
		}
	}()
	for _, run := range runs {
		var src source
		var err error
		if run.Sections == nil {
			src, err = OpenRawRun(disk, run.Name)
		} else {
			src, err = OpenSections(disk, run)
		}
		if err != nil {
			return err
		}
		sources, open = append(sources, src), append(open, src)
	}
	return Merge(sources, compareKeys, func(rec storage.Record, _ int) error {
		return emit(rec.Key, rec.Value)
	})
}
