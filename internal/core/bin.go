package core

import (
	"sync"

	"github.com/hamr-go/hamr/internal/par"
)

// Bin is the minimum unit of data that can enable a flowlet (§2): a batch
// of key-value pairs destined for one flowlet on one node. Bins are what
// the shuffle moves and what the bin queue stores.
//
// A bin is a recycled slab with exactly one owner at a time: the producer's
// binBuffer slot while it fills, then sendBin and the fabric, then the
// consuming task, which returns it to the list it came from once applyBin
// is done. The fabric hands the pointer over, so that list is the
// producing node's. Consumers copy each KV out by value and must not
// retain KVs — the backing array is cleared and refilled by the next
// producer.
type Bin struct {
	Job     int64
	Edge    int // index into the graph's edge list
	Flowlet int // destination flowlet id (redundant with Edge, kept for clarity)
	From    int // producing node
	KVs     []KV
	Bytes   int64
	// Last marks the final bin the producing flowlet flushed to this node:
	// once it is enqueued, that flowlet counts as complete on From (§2),
	// the same as a completion marker arriving after it.
	Last bool

	// home is the free list the slab was drawn from; newBinList's fresh is
	// the only place a Bin is made, so it is never nil.
	home *par.List[*Bin]
}

// release hands a fully consumed bin back to the list it came from. The
// caller must not touch the bin afterwards.
func (b *Bin) release() { b.home.Put(b) }

// newBinList returns one node's free list of bin slabs. Slabs have
// cap(KVs) == size, so filling one never grows it. The list is bounded — a
// put beyond the bound drops the slab to the GC — and each job raises the
// bound to its need (Reserve): one slab per destination slot plus a
// flow-control window in flight, per edge. Put clears a slab: its keys and
// values must not stay reachable from the free list.
func newBinList(size int) *par.List[*Bin] {
	var l *par.List[*Bin]
	l = par.NewList(
		func() *Bin { return &Bin{KVs: make([]KV, 0, size), home: l} },
		func(b *Bin) *Bin {
			clear(b.KVs)
			b.KVs, b.Bytes, b.Last = b.KVs[:0], 0, false
			return b
		},
	).Bounded(0)
	return l
}

// credit implements the flow-control window for one edge on one producing
// node: it counts bins sent to remote nodes but not yet processed there.
//
// Following §2 ("the flowlet stops the current execution immediately and
// will be scheduled in a later time"), a full window does not block
// ordinary flowlet tasks; instead the scheduler stops dispatching new
// input bins to the producing flowlet until the window drains (see
// jobNode.onBin / drainPending). Loader tasks, whose input is unbounded,
// do block via waitBelow — they are the paper's "decrease the number of
// concurrent loader tasks" valve and are capped by the loader semaphore so
// they can never occupy the whole worker pool.
type credit struct {
	mu          sync.Mutex
	cond        *sync.Cond
	outstanding int
	window      int // <= 0 disables flow control
	stalls      int64
	aborted     bool
}

func newCredit(window int) *credit {
	c := &credit{window: window}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// take records one outstanding bin without blocking (window may overshoot
// by the emissions of tasks already running).
func (c *credit) take() {
	if c.window <= 0 {
		return
	}
	c.mu.Lock()
	c.outstanding++
	c.mu.Unlock()
}

// full reports whether the window is exhausted.
func (c *credit) full() bool {
	if c.window <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outstanding >= c.window
}

// waitBelow blocks until the window has room (or flow control is off),
// returning false if the job aborted while waiting.
func (c *credit) waitBelow() bool {
	if c.window <= 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	stalled := false
	for c.outstanding >= c.window && !c.aborted {
		if !stalled {
			stalled = true
			c.stalls++
		}
		c.cond.Wait()
	}
	return !c.aborted
}

// release frees one slot (called when the receiver acks the bin). Each
// ack frees exactly one window slot, so waking a single waiter suffices;
// Broadcast here caused a thundering herd of loaders that immediately
// re-slept. abort still Broadcasts because it releases every waiter.
func (c *credit) release() {
	if c.window <= 0 {
		return
	}
	c.mu.Lock()
	if c.outstanding > 0 {
		c.outstanding--
	}
	c.cond.Signal()
	c.mu.Unlock()
}

// abort wakes all waiters and makes future waits fail.
func (c *credit) abort() {
	c.mu.Lock()
	c.aborted = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Stalls returns how many times a producer stalled on this edge.
func (c *credit) Stalls() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stalls
}

// binBuffer accumulates output pairs for one edge, bucketed per
// destination node, sealing a bin when a slot reaches the configured
// size.
//
// Locking is sharded per destination slot: concurrent workers emitting on
// the same edge only contend when they target the same destination node,
// never on a whole-edge mutex (a single edge-wide lock serialized every
// mapper/loader on a node exactly where the engine is supposed to run
// them asynchronously). Slots are padded to separate cache lines so
// neighbouring destinations do not false-share.
type binBuffer struct {
	slots   []binSlot // one per destination node
	list    *par.List[*Bin]
	maxByte int64
}

type binSlot struct {
	mu  sync.Mutex
	bin *Bin             // slab being filled; nil while the slot is empty
	_   [64 - 8 - 8]byte // pad to one 64-byte cache line
}

func newBinBuffer(numNodes int, list *par.List[*Bin], maxBytes int64) *binBuffer {
	return &binBuffer{
		slots:   make([]binSlot, numNodes),
		list:    list,
		maxByte: maxBytes,
	}
}

// add appends kv to the destination slot and returns the slot's bin when
// it fills (the caller now owns it), or nil. size is the caller-computed
// kv.Size(): emits that fan a pair out to several edges or destinations
// size it once.
func (b *binBuffer) add(dest int, kv KV, size int64) *Bin {
	s := &b.slots[dest]
	s.mu.Lock()
	bin := s.bin
	if bin == nil {
		bin = b.list.Get()
		s.bin = bin
	}
	bin.KVs = append(bin.KVs, kv)
	bin.Bytes += size
	if len(bin.KVs) < cap(bin.KVs) && bin.Bytes < b.maxByte {
		s.mu.Unlock()
		return nil
	}
	s.bin = nil
	s.mu.Unlock()
	return bin
}

// take seals and returns dest's partially filled bin, or nil if the slot
// is empty; called per destination when the producing flowlet completes on
// this node. Slots are locked one at a time, so a drain does not stall
// emitters targeting other destinations.
func (b *binBuffer) take(dest int) *Bin {
	s := &b.slots[dest]
	s.mu.Lock()
	bin := s.bin
	s.bin = nil
	s.mu.Unlock()
	return bin
}
