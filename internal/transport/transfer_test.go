package transport

import (
	"sync"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/vtime"
)

// newTransferNet is a network of nodes registered nodes with no-op
// handlers, priced by model and recording into reg.
func newTransferNet(t *testing.T, model CostModel, nodes int, reg *metrics.Registry) *InMemNetwork {
	t.Helper()
	n := NewInMemNetwork(model, reg)
	t.Cleanup(func() { n.Close() })
	for i := 0; i < nodes; i++ {
		if err := n.Register(NodeID(i), func(Message) {}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestTransferSerializesPerReceiver(t *testing.T) {
	n := newTransferNet(t, CostModel{BytesPerSec: 10 << 20}, 3, nil) // 10 MB/s
	// Two concurrent 512 KiB transfers to the SAME receiver must serialize
	// (>= ~100ms); to different receivers they overlap.
	elapsed := func(to1, to2 NodeID) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for _, to := range []NodeID{to1, to2} {
			wg.Add(1)
			go func(to NodeID) {
				defer wg.Done()
				n.Transfer(2, to, 512<<10)
			}(to)
		}
		wg.Wait()
		return time.Since(start)
	}
	same := elapsed(0, 0)
	diff := elapsed(0, 1)
	if want := 2 * n.model.Delay(512<<10); same < want {
		t.Errorf("same-receiver transfers took %v, want >= %v", same, want)
	}
	if diff > same {
		t.Errorf("different receivers (%v) slower than same receiver (%v)", diff, same)
	}
}

func TestTransferSelfIsFree(t *testing.T) {
	reg := metrics.NewRegistry()
	n := newTransferNet(t, CostModel{BytesPerSec: 1}, 2, reg) // absurdly slow
	start := time.Now()
	n.Transfer(1, 1, 1<<30)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("self transfer charged")
	}
	if got := reg.Counter("net.msgs").Value(); got != 0 {
		t.Fatalf("self transfer counted %d messages", got)
	}
}

// TestTransferPricesLikeDelivery: a Transfer is priced by the formula a
// delivered message is — model delay plus wire-fault churn — and counted in
// the same net.* metrics, whether or not the model charges.
func TestTransferPricesLikeDelivery(t *testing.T) {
	reg := metrics.NewRegistry()
	n := newTransferNet(t, CostModel{Latency: time.Millisecond}, 2, reg)
	vc := vtime.NewVirtual(2)
	hook := &countingHook{extra: 10 * time.Millisecond}
	n.Use(Env{Clock: vc, Faults: hook})

	const total = 30
	for i := 0; i < total; i++ {
		n.Transfer(0, 1, 8)
	}
	if hook.calls.Load() != total {
		t.Fatalf("hook consulted %d times, want once per transfer", hook.calls.Load())
	}
	// The same charge as TestInMemFaultHookChargesWithoutDroppingDelivery:
	// 30 transfers + 10 retransmissions at 1ms, + 6 extra delays of 10ms.
	if got, want := vc.NodeTime(1), 40*time.Millisecond+6*10*time.Millisecond; got != want {
		t.Fatalf("receiver lane advanced %v, want %v", got, want)
	}
	if vc.NodeTime(0) != 0 {
		t.Fatalf("sender lane advanced %v", vc.NodeTime(0))
	}
	if m, b := reg.Counter("net.msgs").Value(), reg.Counter("net.bytes").Value(); m != total || b != 8*total {
		t.Fatalf("net.msgs = %d, net.bytes = %d; want %d, %d", m, b, total, 8*total)
	}

	free := newTransferNet(t, CostModel{}, 2, reg)
	free.Transfer(0, 1, 8)
	if m := reg.Counter("net.msgs").Value(); m != total+1 {
		t.Fatalf("an unpriced transfer was not counted: net.msgs = %d", m)
	}
	free.Transfer(0, 5, 8)
	if d := reg.Counter("net.dropped").Value(); d != 1 {
		t.Fatalf("a transfer to an unregistered node: net.dropped = %d, want 1", d)
	}
}

// TestTransferSharesIngress: a Transfer and a delivered message bound for
// one node queue for the same ingress. On the real clock the pair takes at
// least the sum of their delays; on a virtual clock they advance only the
// receiver's Net lane, by exactly that sum.
func TestTransferSharesIngress(t *testing.T) {
	const size = 512 << 10
	model := CostModel{BytesPerSec: 10 << 20} // 10 MB/s: ~52ms per transfer
	want := 2 * model.Delay(size)

	run := func(clk vtime.Clock) time.Duration {
		n := NewInMemNetwork(model, nil)
		defer n.Close()
		n.Use(Env{Clock: clk})
		delivered := make(chan struct{})
		if err := n.Register(0, func(Message) {}); err != nil {
			t.Fatal(err)
		}
		if err := n.Register(1, func(Message) { close(delivered) }); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := n.Send(Message{From: 0, To: 1, Kind: "bin", Size: size}); err != nil {
			t.Fatal(err)
		}
		n.Transfer(0, 1, size)
		<-delivered
		return time.Since(start)
	}

	if wall := run(nil); wall < want {
		t.Errorf("real clock: a transfer and a message to one node took %v, want >= %v", wall, want)
	}
	vc := vtime.NewVirtual(2)
	run(vc)
	if got := vc.NodeTime(1); got != want {
		t.Errorf("virtual clock: receiver lane advanced %v, want %v", got, want)
	}
	if got := vc.Busy(vtime.Net); got != want {
		t.Errorf("virtual clock: Net busy %v, want %v", got, want)
	}
	if vc.NodeTime(0) != 0 || vc.NodeTime(vtime.Driver) != 0 {
		t.Errorf("virtual clock: sender %v, driver %v; want both 0", vc.NodeTime(0), vc.NodeTime(vtime.Driver))
	}
}

// TestByteChargesIgnoreFraming: a node's byte charges depend on how many
// bytes it received, not on how they were cut into messages and
// transfers. At 3 B/s a byte costs 333,333,333.3 ns, so charging each
// one-byte arrival on its own would lose a nanosecond per three.
func TestByteChargesIgnoreFraming(t *testing.T) {
	model := CostModel{BytesPerSec: 3}
	lane := func(sizes ...int64) time.Duration {
		vc := vtime.NewVirtual(2)
		n := newTransferNet(t, model, 2, nil)
		n.Use(Env{Clock: vc})
		for i, size := range sizes {
			if i%2 == 0 {
				n.Transfer(0, 1, size)
			} else if err := n.Send(Message{From: 0, To: 1, Kind: "bin", Size: size}); err != nil {
				t.Fatal(err)
			}
		}
		n.Quiesce()
		return vc.NodeTime(1)
	}
	whole := lane(6)
	if whole != 2*time.Second {
		t.Fatalf("6 bytes at 3 B/s charged %v, want 2s", whole)
	}
	if cut := lane(1, 1, 1, 1, 1, 1); cut != whole {
		t.Errorf("six 1-byte arrivals charged %v, one 6-byte arrival %v", cut, whole)
	}
	if cut := lane(2, 1, 3); cut != whole {
		t.Errorf("arrivals of 2, 1 and 3 bytes charged %v, one 6-byte arrival %v", cut, whole)
	}
}
