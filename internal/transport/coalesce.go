package transport

import (
	"fmt"
	"sync"
	"time"

	"github.com/hamr-go/hamr/internal/trace"
)

// KindBatch marks a coalesced frame carrying several application messages
// to one destination. Both Network implementations unpack batch frames
// (see dispatch) before invoking the destination handler, so receivers
// never observe the framing.
const KindBatch = "transport.batch"

// BatchPayload is the payload of a KindBatch frame: the coalesced
// messages, in send order.
type BatchPayload struct {
	Msgs []Message
}

// CoalescerConfig bounds how long and how large a pending batch may grow.
type CoalescerConfig struct {
	// MaxBytes flushes a destination once its pending modeled bytes reach
	// this threshold; messages at least this large bypass coalescing
	// entirely (after flushing what's queued ahead of them, preserving
	// per-destination order).
	MaxBytes int64
	// MaxMsgs flushes a destination once this many messages are pending.
	MaxMsgs int
	// MaxAge bounds how long a pending message may wait before a
	// background flush pushes it out; this caps the latency added to
	// credit acks and stragglers.
	MaxAge time.Duration
	// Trace, if non-nil, records an instant event per multi-message batch
	// flush (single-message pass-throughs are not flushes and trace
	// nothing, so uncoalesced traffic stays event-free).
	Trace *trace.Tracer
}

// DefaultCoalescerConfig matches the runtime defaults: one batch per
// flow-control window of acks (32), 16 KiB of small bin flushes, and a
// half-millisecond age bound.
func DefaultCoalescerConfig() CoalescerConfig {
	return CoalescerConfig{MaxBytes: 16 << 10, MaxMsgs: 32, MaxAge: 500 * time.Microsecond}
}

func (c *CoalescerConfig) fillDefaults() {
	d := DefaultCoalescerConfig()
	if c.MaxBytes <= 0 {
		c.MaxBytes = d.MaxBytes
	}
	if c.MaxMsgs <= 0 {
		c.MaxMsgs = d.MaxMsgs
	}
	if c.MaxAge <= 0 {
		c.MaxAge = d.MaxAge
	}
}

// destBuffer holds the pending messages for one destination.
//
// sendMu serializes every send toward the destination (batch frames and
// pass-throughs alike); the pending batch is only taken while holding it,
// so once any Flush/flush path returns, every message that was pending at
// entry has been handed to the wrapped network — nothing can land on the
// wire after a later message sent under the same sendMu. That is the
// ordering barrier seal/complete broadcasts rely on.
type destBuffer struct {
	sendMu sync.Mutex // serializes sends to this destination
	mu     sync.Mutex // guards msgs/bytes
	msgs   []Message
	bytes  int64
}

// Coalescer wraps a Network and aggregates small same-destination
// messages into single KindBatch frames under size/count/age thresholds.
// The batch frame's modeled Size is the sum of the inner message sizes,
// so net.bytes totals are unchanged by coalescing; only the message
// (frame) count drops, reflecting real wire framing.
//
// Coalescer itself implements Network. Close flushes all pending messages
// and stops the age timer but does NOT close the wrapped network (the
// caller owns it).
type Coalescer struct {
	net Network
	cfg CoalescerConfig

	mu    sync.RWMutex // guards dests
	dests map[NodeID]*destBuffer

	// flushes numbers traced batch flushes; shared across destinations,
	// so it needs its own mutex rather than riding a destBuffer's sendMu.
	flushMu sync.Mutex
	flushes int64

	timerMu sync.Mutex
	timer   *time.Timer
	armed   bool
	closed  bool
}

// NewCoalescer wraps net with a coalescing send path. Zero config fields
// take the defaults from DefaultCoalescerConfig.
func NewCoalescer(net Network, cfg CoalescerConfig) *Coalescer {
	cfg.fillDefaults()
	return &Coalescer{net: net, cfg: cfg, dests: make(map[NodeID]*destBuffer)}
}

// Register passes through to the wrapped network.
func (c *Coalescer) Register(node NodeID, h Handler) error { return c.net.Register(node, h) }

func (c *Coalescer) dest(id NodeID) *destBuffer {
	c.mu.RLock()
	d := c.dests[id]
	c.mu.RUnlock()
	if d != nil {
		return d
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d = c.dests[id]; d == nil {
		d = &destBuffer{}
		c.dests[id] = d
	}
	return d
}

// Send implements Network. Broadcasts and large messages flush the
// pending traffic ordered ahead of them, then pass straight through;
// small unicasts are buffered until a size, count, or age threshold
// flushes the destination.
func (c *Coalescer) Send(msg Message) error {
	if msg.To == Broadcast {
		// Flush every destination first so each receiver sees this
		// sender's earlier unicasts (e.g. its bins) before the broadcast
		// (e.g. its completion marker).
		if err := c.Flush(); err != nil {
			return err
		}
		return c.net.Send(msg)
	}
	d := c.dest(msg.To)
	if msg.Size >= c.cfg.MaxBytes {
		// Too big to benefit from framing: take sendMu, push out what's
		// queued ahead, then pass the message through under the same lock
		// so nothing reorders around it.
		d.sendMu.Lock()
		defer d.sendMu.Unlock()
		if err := c.sendPendingLocked(d, msg.To); err != nil {
			return err
		}
		return c.net.Send(msg)
	}

	d.mu.Lock()
	d.msgs = append(d.msgs, msg)
	d.bytes += msg.Size
	full := len(d.msgs) >= c.cfg.MaxMsgs || d.bytes >= c.cfg.MaxBytes
	d.mu.Unlock()

	if full {
		return c.flushDest(d, msg.To)
	}
	c.arm()
	return nil
}

// sendPendingLocked takes the pending batch and hands it to the wrapped
// network. Caller holds d.sendMu.
func (c *Coalescer) sendPendingLocked(d *destBuffer, to NodeID) error {
	d.mu.Lock()
	msgs := d.msgs
	bytes := d.bytes
	d.msgs = nil
	d.bytes = 0
	d.mu.Unlock()
	switch len(msgs) {
	case 0:
		return nil
	case 1:
		return c.net.Send(msgs[0])
	}
	if t := c.cfg.Trace; t != nil {
		c.flushMu.Lock()
		c.flushes++
		seq := c.flushes
		c.flushMu.Unlock()
		t.Instant(int(msgs[0].From), "",
			fmt.Sprintf("coalesce:n%d:to%d:%d", msgs[0].From, to, seq), "flush", bytes)
	}
	return c.net.Send(Message{
		From:    msgs[0].From,
		To:      to,
		Kind:    KindBatch,
		Payload: &BatchPayload{Msgs: msgs},
		Size:    bytes,
	})
}

func (c *Coalescer) flushDest(d *destBuffer, to NodeID) error {
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	return c.sendPendingLocked(d, to)
}

// Flush pushes every pending message out to the wrapped network. It is
// the barrier used at seal/completion points: when it returns, every
// message accepted by Send before the call has been handed to the wrapped
// network in order.
func (c *Coalescer) Flush() error {
	c.mu.RLock()
	ids := make([]NodeID, 0, len(c.dests))
	for id := range c.dests {
		ids = append(ids, id)
	}
	c.mu.RUnlock()
	var firstErr error
	for _, id := range ids {
		if err := c.flushDest(c.dest(id), id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// arm schedules the age-bound background flush if one isn't already
// pending. The timer is re-armed on demand rather than ticking
// continuously, so an idle coalescer costs nothing. It runs on wall time
// under either clock: the age flush is liveness pacing for batching — it
// must keep firing when a virtual clock has removed every modeled sleep —
// not a modeled cost.
func (c *Coalescer) arm() {
	c.timerMu.Lock()
	defer c.timerMu.Unlock()
	if c.armed || c.closed {
		return
	}
	c.armed = true
	if c.timer == nil {
		c.timer = time.AfterFunc(c.cfg.MaxAge, c.onTimer)
	} else {
		c.timer.Reset(c.cfg.MaxAge)
	}
}

func (c *Coalescer) onTimer() {
	c.timerMu.Lock()
	// Clear armed BEFORE flushing: an append racing this flush re-arms
	// the timer instead of being stranded until the next send.
	c.armed = false
	closed := c.closed
	c.timerMu.Unlock()
	if closed {
		return
	}
	// Best-effort: a node that unregistered while its ack sat in the
	// buffer is not an error worth surfacing from a timer goroutine.
	_ = c.Flush()
}

// Close flushes pending messages and stops the age timer. The wrapped
// network is left open.
func (c *Coalescer) Close() error {
	c.timerMu.Lock()
	alreadyClosed := c.closed
	c.closed = true
	if c.timer != nil {
		c.timer.Stop()
	}
	c.timerMu.Unlock()
	if alreadyClosed {
		return nil
	}
	return c.Flush()
}

var _ Network = (*Coalescer)(nil)
