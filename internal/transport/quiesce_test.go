package transport

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestQuiesceIdleReturnsImmediately: an empty network is already quiet.
func TestQuiesceIdleReturnsImmediately(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	done := make(chan struct{})
	go func() { n.Quiesce(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce blocked on an idle network")
	}
}

// TestQuiesceWaitsForDelivery: Quiesce returns only after every accepted
// message — unicast and broadcast copies alike — has been handed to its
// handler, even when delivery is slowed by a modeled delay (the real clock
// sleeps it).
func TestQuiesceWaitsForDelivery(t *testing.T) {
	n := NewInMemNetwork(CostModel{Latency: 2 * time.Millisecond}, nil)
	defer n.Close()

	const nodes = 3
	var handled atomic.Int64
	for i := 0; i < nodes; i++ {
		if err := n.Register(NodeID(i), func(Message) { handled.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	const unicasts = 20
	for i := 0; i < unicasts; i++ {
		if err := n.Send(Message{From: 0, To: NodeID(i % nodes), Kind: "x", Size: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Send(Message{From: 0, To: Broadcast, Kind: "x", Size: 64}); err != nil {
		t.Fatal(err)
	}
	n.Quiesce()
	if got := handled.Load(); got != unicasts+nodes {
		t.Fatalf("handled %d messages after Quiesce, want %d", got, unicasts+nodes)
	}
}

// TestQuiesceAfterRejectedSend: a send to a node whose inbox has closed
// must not strand the pending count and hang later Quiesce calls.
func TestQuiesceAfterRejectedSend(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	if err := n.Register(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	// The send below is accepted into the pending count, then rejected by
	// the closed inbox.
	closeInbox(n, 0)
	if err := n.Send(Message{From: 1, To: 0, Kind: "x"}); err == nil {
		t.Fatal("send to a closed inbox succeeded")
	}
	done := make(chan struct{})
	go func() { n.Quiesce(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce hung after a rejected send")
	}
}
