package transport

// Microbenchmarks for the message fabric. The pre-optimization network
// they were first measured against (global mutex + map routing, queue[1:]
// inbox) is gone; its numbers are in EXPERIMENTS.md "Fabric
// microbenchmarks (before/after)".
//
//	BenchmarkNetSendPath            — lock-free snapshot routing + ring inbox
//	BenchmarkCoalescedShuffle       — small messages through a Coalescer
//	BenchmarkCoalescedShuffleDirect — the same messages sent one frame each
//
// The send-path benchmark exercises exactly the per-message work the
// jobNode's shuffle does: a unicast Send with a modeled size, zero-cost
// model (the modeled sleep would drown the engineering cost being
// measured).

import (
	"sync/atomic"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// send path

const benchNodes = 8

func BenchmarkNetSendPath(b *testing.B) {
	net := NewInMemNetwork(CostModel{}, nil)
	var delivered atomic.Int64
	for i := 0; i < benchNodes; i++ {
		if err := net.Register(NodeID(i), func(Message) { delivered.Add(1) }); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := net.Send(Message{From: 0, To: NodeID(i % benchNodes), Kind: "kv", Size: 16}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	if err := net.Close(); err != nil { // waits for queued deliveries
		b.Fatal(err)
	}
	if delivered.Load() != int64(b.N) {
		b.Fatalf("delivered %d of %d", delivered.Load(), b.N)
	}
}

// ---------------------------------------------------------------------------
// coalesced shuffle

// benchShuffleFanout measures end-to-end delivery of b.N small messages
// fanned out over benchNodes destinations — the ack/small-bin traffic
// shape of the flowlet shuffle.
func benchShuffleFanout(b *testing.B, coalesce bool) {
	inner := NewInMemNetwork(CostModel{}, nil)
	var net Network = inner
	var co *Coalescer
	if coalesce {
		co = NewCoalescer(inner, CoalescerConfig{MaxBytes: 16 << 10, MaxMsgs: 32, MaxAge: 500 * time.Microsecond})
		net = co
	}
	var delivered atomic.Int64
	done := make(chan struct{})
	target := int64(b.N)
	for i := 0; i < benchNodes; i++ {
		if err := net.Register(NodeID(i), func(Message) {
			if delivered.Add(1) == target {
				close(done)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Send(Message{From: 0, To: NodeID(i % benchNodes), Kind: "ack", Size: 16}); err != nil {
			b.Fatal(err)
		}
	}
	if co != nil {
		if err := co.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	if co != nil {
		co.Close()
	}
	inner.Close()
}

func BenchmarkCoalescedShuffle(b *testing.B) {
	benchShuffleFanout(b, true)
}

func BenchmarkCoalescedShuffleDirect(b *testing.B) {
	benchShuffleFanout(b, false)
}
