// Package trace is a low-overhead span recorder for the simulated
// cluster. It records per-task timelines — spans carrying (node,
// task/flowlet id, phase, resource, byte count) plus instant events
// for faults, retries, spills and container grants — and exports them as
// Chrome trace_event JSON together with a computed critical path.
//
// The recorder is nil-safe and default-off: every method on a nil
// *Tracer (and on the zero Span) is a no-op, so instrumented code
// paths stay bit-identical to their untraced behaviour when no tracer
// is installed. Appends are lock-free: each node (plus the driver)
// owns a sharded chunk list with an atomic claim cursor, so recording
// never introduces cross-node synchronization that could perturb the
// schedule being measured.
//
// Timestamps come from the engine's vtime.Clock. Under the virtual
// clock a span is stamped with the owning node's modeled lane time
// (vtime.VirtualClock.NodeTime), so -vclock runs produce
// deterministic, bit-identical timelines; under the real clock spans
// are stamped with the wall offset from the tracer's epoch.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hamr-go/hamr/internal/vtime"
)

// Event is one recorded span (Instant=false) or instant event
// (Instant=true, Dur always zero).
type Event struct {
	ID      string        // semantic identity, stable across runs
	Parent  string        // enclosing span ID ("" = root)
	Phase   string        // phase category: "map", "spill", "fetch", ...
	Res     string        // dominant resource: "disk", "net", "cpu", "startup", ""
	Node    int           // owning lane (-1 = driver)
	Begin   time.Duration // offset from trace epoch (lane time under vclock)
	Dur     time.Duration // span duration; zero for instants
	Bytes   int64         // bytes attributed to this event, if any
	Instant bool
}

const chunkSize = 256

// chunk is one fixed-size block of a shard's append-only event list.
// Slots are atomic.Pointer so a concurrent Events() collection (e.g.
// under -race) observes either nil or a fully written event.
type chunk struct {
	next  atomic.Pointer[chunk]
	used  atomic.Int64
	slots [chunkSize]atomic.Pointer[Event]
}

// shard is a per-lane event list. Padded so the hot claim cursors of
// neighbouring lanes do not share a cache line.
type shard struct {
	head *chunk
	tail atomic.Pointer[chunk]
	_    [48]byte
}

func newShard() *shard {
	s := &shard{head: &chunk{}}
	s.tail.Store(s.head)
	return s
}

func (s *shard) append(ev *Event) {
	for {
		c := s.tail.Load()
		idx := c.used.Add(1) - 1
		if idx < chunkSize {
			c.slots[idx].Store(ev)
			return
		}
		// Chunk full: link a fresh one (losers of the CAS retry on
		// the winner's chunk) and advance the tail hint.
		nc := &chunk{}
		if c.next.CompareAndSwap(nil, nc) {
			s.tail.CompareAndSwap(c, nc)
		} else {
			s.tail.CompareAndSwap(c, c.next.Load())
		}
	}
}

func (s *shard) collect(out []*Event) []*Event {
	for c := s.head; c != nil; c = c.next.Load() {
		n := c.used.Load()
		if n > chunkSize {
			n = chunkSize
		}
		for i := int64(0); i < n; i++ {
			if ev := c.slots[i].Load(); ev != nil {
				out = append(out, ev)
			}
		}
	}
	return out
}

// Tracer records spans and instants for one cluster run.
type Tracer struct {
	vc     *vtime.VirtualClock
	epoch  time.Time
	shards []*shard // shards[0] = driver, shards[1+i] = node i

	mu      sync.Mutex
	jobTags map[int64]string
}

// New returns a tracer for a cluster with the given node count,
// stamping events from clk. A *vtime.VirtualClock yields modeled
// lane-time stamps (deterministic across runs); any other clock (or
// nil) yields wall offsets from the tracer's creation time.
func New(nodes int, clk vtime.Clock) *Tracer {
	t := &Tracer{
		epoch:   time.Now(),
		shards:  make([]*shard, nodes+1),
		jobTags: make(map[int64]string),
	}
	if vc, ok := clk.(*vtime.VirtualClock); ok {
		t.vc = vc
	}
	for i := range t.shards {
		t.shards[i] = newShard()
	}
	return t
}

// Enabled reports whether events are being recorded. Instrumentation
// sites use it to skip building IDs when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// JobTag maps an engine-assigned job ID (a process-global sequence
// number) to a per-tracer index "j0", "j1", ... so span IDs are
// identical across runs within one process.
func (t *Tracer) JobTag(jobID int64) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tag, ok := t.jobTags[jobID]
	if !ok {
		tag = fmt.Sprintf("j%d", len(t.jobTags))
		t.jobTags[jobID] = tag
	}
	return tag
}

func (t *Tracer) now(node int) time.Duration {
	if t.vc != nil {
		return t.vc.NodeTime(node)
	}
	return time.Since(t.epoch)
}

func (t *Tracer) shardFor(node int) *shard {
	if node < 0 || node+1 >= len(t.shards) {
		return t.shards[0]
	}
	return t.shards[node+1]
}

// Span is an open interval created by Start. The zero Span (and any
// span from a nil tracer) is inert: End is a no-op.
type Span struct {
	t      *Tracer
	node   int
	begin  time.Duration
	id     string
	parent string
	phase  string
	res    string
}

// Start opens a span on the given node's lane. End (or EndBytes) must
// be called from a context where the same lane's time is meaningful.
func (t *Tracer) Start(node int, parent, id, phase, res string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, node: node, begin: t.now(node), id: id, parent: parent, phase: phase, res: res}
}

// End closes the span and records it.
func (s Span) End() { s.EndBytes(0) }

// EndBytes closes the span, attributing the given byte count.
func (s Span) EndBytes(bytes int64) {
	if s.t == nil {
		return
	}
	end := s.t.now(s.node)
	if end < s.begin {
		end = s.begin
	}
	s.t.shardFor(s.node).append(&Event{
		ID: s.id, Parent: s.parent, Phase: s.phase, Res: s.res,
		Node: s.node, Begin: s.begin, Dur: end - s.begin, Bytes: bytes,
	})
}

// Instant records a zero-duration event (fault, retry, spill, container
// grant) on the given node's lane.
func (t *Tracer) Instant(node int, parent, id, phase string, bytes int64) {
	if t == nil {
		return
	}
	t.shardFor(node).append(&Event{
		ID: id, Parent: parent, Phase: phase, Node: node,
		Begin: t.now(node), Bytes: bytes, Instant: true,
	})
}

// Events returns all recorded events in canonical order. The sort key
// is semantic (ID first, timestamps last), so two runs that record
// the same logical events in different arrival order — or with
// different wall timestamps — still enumerate identically whenever
// their stamps agree, which is what makes -vclock trace exports
// byte-identical across runs.
func (t *Tracer) Events() []*Event {
	if t == nil {
		return nil
	}
	var evs []*Event
	for _, s := range t.shards {
		evs = s.collect(evs)
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Instant != b.Instant {
			return !a.Instant
		}
		if a.Bytes != b.Bytes {
			return a.Bytes < b.Bytes
		}
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
		return a.Dur < b.Dur
	})
	return evs
}

// Tree returns a timestamp-free structural dump — one
// "id|phase|parent|node|bytes|instant" line per event in canonical
// order. Real-clock and virtual-clock runs of the same deterministic
// workload must produce identical trees even though their stamps
// differ.
func Tree(evs []*Event) string {
	var sb []byte
	for _, ev := range evs {
		sb = fmt.Appendf(sb, "%s|%s|%s|%d|%d|%t\n",
			ev.ID, ev.Phase, ev.Parent, ev.Node, ev.Bytes, ev.Instant)
	}
	return string(sb)
}
