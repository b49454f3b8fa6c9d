package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/vtime"
)

// countingHook is a FaultHook that marks every 3rd message dropped (one
// retransmission) and adds a fixed extra delay to every 5th.
type countingHook struct {
	calls atomic.Int64
	extra time.Duration
}

func (h *countingHook) DeliveryFault(node int, size int64) (int, int, time.Duration) {
	n := h.calls.Add(1)
	var retrans int
	var extra time.Duration
	if n%3 == 0 {
		retrans = 1
	}
	if n%5 == 0 {
		extra = h.extra
	}
	return retrans, 0, extra
}

func TestInMemFaultHookChargesWithoutDroppingDelivery(t *testing.T) {
	// Per-message latency 1ms so a retransmission is visible as extra
	// charged (not slept: the clock is virtual) delay.
	n := NewInMemNetwork(CostModel{Latency: time.Millisecond}, nil)
	defer n.Close()
	vc := vtime.NewVirtual(2)
	hook := &countingHook{extra: 10 * time.Millisecond}
	n.Use(Env{Clock: vc, Faults: hook})

	const total = 30
	var got atomic.Int64
	allIn := make(chan struct{})
	if err := n.Register(1, func(m Message) {
		if got.Add(1) == total {
			close(allIn)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if err := n.Send(Message{From: 0, To: 1, Kind: "k", Size: 8}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-allIn:
	case <-time.After(5 * time.Second):
		t.Fatalf("delivered %d of %d messages", got.Load(), total)
	}
	if hook.calls.Load() != total {
		t.Fatalf("hook consulted %d times, want once per message", hook.calls.Load())
	}
	// 30 transfers + 10 retransmissions at 1ms, + 6 extra delays of 10ms.
	n.Quiesce() // the last batch's handler runs after its charge, but be explicit
	if got, want := vc.Busy(vtime.Net), 40*time.Millisecond+6*10*time.Millisecond; got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
}

func TestInMemNilHookIgnored(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	n.Use(Env{}) // no hook: delivery must not consult one
	done := make(chan struct{})
	if err := n.Register(1, func(m Message) { close(done) }); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(Message{From: 0, To: 1, Kind: "k", Size: 8}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
}
