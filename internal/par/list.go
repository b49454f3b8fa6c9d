package par

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// List is a free list: a LIFO stack of idle items behind a mutex, the one
// recycler of the engines' buffers. It is not a sync.Pool on purpose: a
// pool empties at every GC cycle, so a process that collects between jobs
// would pay for every buffer again. The list counts what it makes, hands
// out and takes back, so its owner can tell when everything is home
// (Stats.Home). Unbounded, it never holds more items than were ever out
// at once; bounded (Bounded), it drops what comes back past the bound.
type List[T any] struct {
	fresh func() T  // makes an item when none is idle
	reset func(T) T // readies a returned item for reuse

	mu                      sync.Mutex
	free                    []T
	bound                   int // most idle items kept; < 0: unbounded
	live, made, peak, drops int
}

// NewList returns an empty, unbounded list. Get makes an item with fresh
// when none is idle; Put passes a returned item through reset, which must
// drop every reference the item holds.
func NewList[T any](fresh func() T, reset func(T) T) *List[T] {
	return &List[T]{fresh: fresh, reset: reset, bound: -1}
}

// NewSlices returns an empty, unbounded list of []E. Get makes slices of
// capacity size, or hands out nil if size is 0 and the caller makes what
// it needs; a caller may trade a slice for a larger one, which the list
// counts as the one it handed out. Put clears a slice up to its capacity,
// except that under the race detector it fills a []byte or []uint32 with
// 0xA5 bytes: read back, that is a record length varint that never ends or
// a block number out of range, so a use after return fails loudly.
func NewSlices[E any](size int) *List[[]E] {
	fresh := func() []E { return nil }
	if size > 0 {
		fresh = func() []E { return make([]E, 0, size) }
	}
	return NewList(fresh, func(s []E) []E {
		s = s[:cap(s)]
		if !poison(s) {
			clear(s)
		}
		return s[:0]
	})
}

// Bounded makes a list that is not yet in use keep at most n idle items,
// and returns it.
func (l *List[T]) Bounded(n int) *List[T] {
	l.bound = n
	return l
}

// Reserve raises a bounded list's bound to n if it is lower.
func (l *List[T]) Reserve(n int) {
	l.mu.Lock()
	if l.bound >= 0 {
		l.bound = max(l.bound, n)
	}
	l.mu.Unlock()
}

// Get returns an idle item, or a fresh one when none is idle.
func (l *List[T]) Get() T {
	l.mu.Lock()
	l.live++
	l.peak = max(l.peak, l.live)
	if n := len(l.free); n > 0 {
		it := l.free[n-1]
		l.free[n-1] = *new(T)
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return it
	}
	l.made++
	l.mu.Unlock()
	return l.fresh()
}

// Put resets an item Get handed out, or the one it was traded for, and
// keeps it unless the list is at its bound. The caller must not touch it
// afterwards.
func (l *List[T]) Put(it T) {
	it = l.reset(it)
	l.mu.Lock()
	l.live--
	if l.bound < 0 || len(l.free) < l.bound {
		l.free = append(l.free, it)
	} else {
		l.drops++
	}
	l.mu.Unlock()
}

// Stats is a snapshot of a List's counts.
type Stats struct {
	Live    int // handed out and not yet returned
	Free    int // idle on the list
	Made    int // made by Get: the list had none idle
	Peak    int // the most items live at once
	Dropped int // returned past the bound and left to the GC
}

// Stats returns the list's counts.
func (l *List[T]) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{Live: l.live, Free: len(l.free), Made: l.made, Peak: l.peak, Dropped: l.drops}
}

// Home reports an error unless every item is home: none is live, and
// every item made is idle or was dropped — no more, which a second Put of
// one item, or a Put of one the list never made, would give.
func (s Stats) Home() error {
	if s.Live != 0 || s.Made != s.Free+s.Dropped {
		return fmt.Errorf("%d live, %d made, %d free, %d dropped: want none live and every one made free or dropped",
			s.Live, s.Made, s.Free, s.Dropped)
	}
	return nil
}

// Buffers names the lists an owner holds: their Stats methods.
type Buffers map[string]func() Stats

// Add puts every list of more into b, each under prefix plus its name.
func (b Buffers) Add(prefix string, more Buffers) {
	for name, stats := range more {
		b[prefix+name] = stats
	}
}

// Home reports every list in b that is not home, by name in name order;
// nil when all of them are.
func (b Buffers) Home() error {
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	slices.Sort(names)
	var errs []error
	for _, name := range names {
		if err := b[name]().Home(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
	}
	return errors.Join(errs...)
}
