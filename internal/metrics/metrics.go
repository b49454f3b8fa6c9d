// Package metrics provides lightweight counters, gauges and timers used by
// the HAMR runtime, the MapReduce baseline and the benchmark harness to
// account for work performed (bytes moved, bins scheduled, spills, worker
// busy time, ...).
//
// All operations are safe for concurrent use. A Registry is a flat,
// name-addressed collection; names are dotted paths by convention, e.g.
// "shuffle.bytes" or "disk.read.bytes".
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing 64-bit counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta. Negative deltas are permitted so
// gauges-on-counters (e.g. queue depth) can reuse the type, but most
// callers only ever add positive values.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Timer accumulates elapsed durations, e.g. total worker busy time.
type Timer struct {
	ns atomic.Int64
}

// Observe adds one elapsed duration to the total.
func (t *Timer) Observe(d time.Duration) { t.ns.Add(int64(d)) }

// Total returns the accumulated duration across all observations.
func (t *Timer) Total() time.Duration { return time.Duration(t.ns.Load()) }

// Registry is a named collection of counters and timers.
//
// Lookups take a read lock only, so occasional name-keyed access scales;
// hot paths should still resolve their *Counter / *Timer handle once and
// hold onto it — the handles themselves are lock-free atomics, and a map
// lookup plus string hash per event is measurable overhead at bin/KV
// rates (the flowlet runtime resolves its handles at job construction).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Timer returns the timer with the given name, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t, ok := r.timers[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.timers[name]; ok {
		return t
	}
	t = &Timer{}
	r.timers[name] = t
	return t
}

// Add is shorthand for Counter(name).Add(delta).
func (r *Registry) Add(name string, delta int64) { r.Counter(name).Add(delta) }

// Inc is shorthand for Counter(name).Inc().
func (r *Registry) Inc(name string) { r.Counter(name).Inc() }

// Snapshot is a point-in-time copy of a registry's values.
type Snapshot struct {
	Counters map[string]int64
	Timers   map[string]time.Duration
}

// Snapshot copies out all current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Timers:   make(map[string]time.Duration, len(r.timers)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, t := range r.timers {
		s.Timers[name] = t.Total()
	}
	return s
}

// Merge adds every counter and timer total from other into r. It is used to
// aggregate per-node registries into a cluster-wide view.
func (r *Registry) Merge(other *Registry) {
	snap := other.Snapshot()
	for name, v := range snap.Counters {
		r.Counter(name).Add(v)
	}
	for name, d := range snap.Timers {
		r.Timer(name).Observe(d)
	}
}

// String renders the snapshot sorted by name, one entry per line.
func (s Snapshot) String() string {
	names := make([]string, 0, len(s.Counters)+len(s.Timers))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Timers {
		names = append(names, n+" (timer)")
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		if strings.HasSuffix(n, " (timer)") {
			base := strings.TrimSuffix(n, " (timer)")
			fmt.Fprintf(&b, "%s: %s\n", n, s.Timers[base])
		} else {
			fmt.Fprintf(&b, "%s: %d\n", n, s.Counters[n])
		}
	}
	return b.String()
}

// Get returns a counter value from the snapshot (zero if absent).
func (s Snapshot) Get(name string) int64 { return s.Counters[name] }
