package transport

import "sync"

// KindBatch marks a coalesced frame carrying several application messages
// to one destination. InMemNetwork unpacks batch frames (see dispatch)
// before invoking the destination handler, so receivers never observe the
// framing.
const KindBatch = "transport.batch"

// BatchPayload is the payload of a KindBatch frame: the coalesced
// messages, in send order.
type BatchPayload struct {
	Msgs []Message
}

// CoalescerConfig bounds how large a pending batch may grow.
type CoalescerConfig struct {
	// MaxBytes flushes a destination once its pending modeled bytes reach
	// this threshold; messages at least this large bypass coalescing
	// entirely (after flushing what's queued ahead of them, preserving
	// per-destination order).
	MaxBytes int64
	// MaxMsgs flushes a destination once this many messages are pending.
	MaxMsgs int
}

// DefaultCoalescerConfig packs up to 32 messages or 16 KiB into a frame.
func DefaultCoalescerConfig() CoalescerConfig {
	return CoalescerConfig{MaxBytes: 16 << 10, MaxMsgs: 32}
}

// destBuffer holds the pending messages for one destination.
//
// sendMu serializes every send toward the destination (batch frames and
// pass-throughs alike); the pending batch is only taken while holding it,
// so once any Flush/flush path returns, every message that was pending at
// entry has been handed to the wrapped network — nothing can land on the
// wire after a later message sent under the same sendMu. That is the
// ordering barrier a broadcast relies on.
type destBuffer struct {
	sendMu sync.Mutex // serializes sends to this destination
	mu     sync.Mutex // guards msgs/bytes
	msgs   []Message
	bytes  int64
}

// Coalescer wraps a Network and aggregates small same-destination
// messages into single KindBatch frames under size and count thresholds.
// The batch frame's modeled Size is the sum of the inner message sizes,
// so net.bytes totals are unchanged by coalescing; only the message
// (frame) count drops, reflecting real wire framing.
//
// Nothing flushes a batch on a timer: a caller that stops sending calls
// Flush (or Close) to push out what is pending. The node runtime sends
// straight to the fabric; the benchmark's send probe is what builds one.
//
// Coalescer itself implements Network. Close flushes all pending messages
// but does NOT close the wrapped network (the caller owns it).
type Coalescer struct {
	net Network
	cfg CoalescerConfig

	mu    sync.RWMutex // guards dests
	dests map[NodeID]*destBuffer
}

// NewCoalescer wraps net with a coalescing send path. Zero config fields
// take the defaults from DefaultCoalescerConfig.
func NewCoalescer(net Network, cfg CoalescerConfig) *Coalescer {
	d := DefaultCoalescerConfig()
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = d.MaxBytes
	}
	if cfg.MaxMsgs <= 0 {
		cfg.MaxMsgs = d.MaxMsgs
	}
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
// small unicasts are buffered until a size or count threshold, or Flush,
// sends the destination's batch.
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

// Flush pushes every pending message out to the wrapped network: when it
// returns, every message accepted by Send before the call has been handed
// to the wrapped network in order.
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

// Close flushes pending messages. The wrapped network is left open.
func (c *Coalescer) Close() error { return c.Flush() }

var _ Network = (*Coalescer)(nil)
