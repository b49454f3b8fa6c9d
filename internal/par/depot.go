package par

import "sync"

// Depot keeps idle sets of free lists between owners, so a set outlives
// the owner that filled it: a process that builds a cluster per job hands
// the next cluster the buffers the last one made. Unlike lists shared
// between owners, a set is held by one owner at a time — Take hands it out
// and nothing else can reach it until Give files it again — so each
// owner's Home checks count only what that owner did. The zero value is an
// empty depot.
type Depot[K comparable, V any] struct {
	mu   sync.Mutex
	idle map[K][]V
}

// Take removes and returns a set filed under k; ok is false, and v the
// zero value, when none is.
func (d *Depot[K, V]) Take(k K) (v V, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	sets := d.idle[k]
	if len(sets) == 0 {
		return v, false
	}
	v = sets[len(sets)-1]
	sets[len(sets)-1] = *new(V)
	d.idle[k] = sets[:len(sets)-1]
	return v, true
}

// Give files v under k if lists, the set's own lists, are all home, and
// otherwise leaves v to the GC: an item still out could come back, or be
// used, once another owner holds the set. The caller gives a set at most
// once, and touches it no more.
func (d *Depot[K, V]) Give(k K, v V, lists Buffers) {
	if lists.Home() != nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.idle == nil {
		d.idle = make(map[K][]V)
	}
	d.idle[k] = append(d.idle[k], v)
}
