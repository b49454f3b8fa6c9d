package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/vtime"
)

// keep copies a payload that arrived as bytes, which are the handler's
// only until it returns, so a test can look at the message afterwards.
func keep(m Message) Message {
	if b, ok := m.Payload.([]byte); ok {
		m.Payload = append([]byte(nil), b...)
	}
	return m
}

func TestInMemDelivery(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	var got atomic.Int64
	done := make(chan Message, 1)
	if err := n.Register(0, func(m Message) {
		got.Add(1)
		done <- m
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(Message{From: 1, To: 0, Kind: "x", Payload: "hello", Size: 5}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-done:
		if m.Payload.(string) != "hello" || m.From != 1 {
			t.Fatalf("delivered %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestInMemUnknownNode(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	if err := n.Send(Message{From: 0, To: 42}); err == nil {
		t.Fatal("send to unregistered node succeeded")
	}
}

func TestInMemDuplicateRegister(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	h := func(Message) {}
	if err := n.Register(0, h); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(0, h); err == nil {
		t.Fatal("duplicate register succeeded")
	}
	for _, id := range []NodeID{Broadcast, maxNodeID} {
		if err := n.Register(id, h); err == nil {
			t.Fatalf("register of out-of-range node id %d succeeded", id)
		}
	}
}

func TestInMemFIFOPerReceiver(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	var mu sync.Mutex
	var order []int
	doneCh := make(chan struct{})
	n.Register(0, func(m Message) {
		mu.Lock()
		order = append(order, m.Payload.(int))
		if len(order) == 100 {
			close(doneCh)
		}
		mu.Unlock()
	})
	for i := 0; i < 100; i++ {
		if err := n.Send(Message{From: 1, To: 0, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("not all messages delivered")
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("message %d delivered out of order (got %d)", i, v)
		}
	}
}

func TestInMemBroadcast(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	const nodes = 5
	var wg sync.WaitGroup
	wg.Add(nodes)
	counts := make([]atomic.Int64, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		n.Register(NodeID(i), func(m Message) {
			counts[i].Add(1)
			wg.Done()
		})
	}
	if err := n.Send(Message{From: 0, To: Broadcast, Kind: "b"}); err != nil {
		t.Fatal(err)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast incomplete")
	}
	for i := range counts {
		if counts[i].Load() != 1 {
			t.Errorf("node %d received %d copies", i, counts[i].Load())
		}
	}
}

func TestInMemCloseWaitsForQueue(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	var delivered atomic.Int64
	// The gate holds the first delivery inside the handler so Close
	// provably has pending work to wait for, instead of slowing the
	// handler with a sleep and hoping Close races in before the drain.
	gate := make(chan struct{})
	entered := make(chan struct{}, 20)
	n.Register(0, func(Message) {
		entered <- struct{}{}
		<-gate
		delivered.Add(1)
	})
	for i := 0; i < 20; i++ {
		n.Send(Message{From: 1, To: 0})
	}
	<-entered // a delivery is blocked in the handler
	closed := make(chan struct{})
	go func() { n.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with deliveries still pending")
	default:
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never finished draining the queue")
	}
	if delivered.Load() != 20 {
		t.Fatalf("Close returned with %d/20 delivered", delivered.Load())
	}
	if err := n.Send(Message{From: 1, To: 0}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

func TestInMemCostModelCharges(t *testing.T) {
	reg := metrics.NewRegistry()
	n := NewInMemNetwork(CostModel{Latency: time.Millisecond, BytesPerSec: 1 << 20}, reg)
	vc := vtime.NewVirtual(1)
	n.Use(Env{Clock: vc})
	done := make(chan struct{})
	n.Register(0, func(Message) { close(done) })
	n.Send(Message{From: 1, To: 0, Size: 1 << 20})
	<-done
	n.Close()
	if got := vc.Busy(vtime.Net); got < time.Second {
		t.Errorf("charged %v for 1MiB at 1MiB/s + 1ms, want >= ~1s", got)
	}
	if reg.Counter("net.bytes").Value() != 1<<20 {
		t.Errorf("net.bytes = %d", reg.Counter("net.bytes").Value())
	}
}

func TestInMemQueueDepth(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	block := make(chan struct{})
	entered := make(chan struct{}, 5)
	n.Register(0, func(Message) {
		entered <- struct{}{}
		<-block
	})
	for i := 0; i < 5; i++ {
		n.Send(Message{From: 1, To: 0})
	}
	// Once the first delivery is blocked in the handler nothing else can
	// complete, and QueueDepth counts queued plus drained-but-unhandled
	// messages — so the depth is exactly the five undelivered sends.
	<-entered
	if d := n.QueueDepth(0); d != 5 {
		t.Errorf("QueueDepth = %d, want 5", d)
	}
	close(block)
}

func TestTCPNetworkRoundTrip(t *testing.T) {
	addrs := map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	n := NewTCPNetwork(addrs)
	defer n.Close()

	got := make(chan Message, 10)
	if err := n.Register(0, func(m Message) { got <- keep(m) }); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(1, func(m Message) { got <- keep(m) }); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(Message{From: 0, To: 1, Kind: "ping", Payload: []byte("over tcp"), Size: 8}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Kind != "ping" || string(m.Payload.([]byte)) != "over tcp" || m.From != 0 || m.To != 1 || m.Size != 8 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tcp message not delivered")
	}

	// Reply over the reverse connection.
	if err := n.Send(Message{From: 1, To: 0, Kind: "pong", Payload: []byte("back")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Kind != "pong" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tcp reply not delivered")
	}
}

func TestTCPBroadcast(t *testing.T) {
	addrs := map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	n := NewTCPNetwork(addrs)
	defer n.Close()
	var wg sync.WaitGroup
	wg.Add(3)
	for i := 0; i < 3; i++ {
		if err := n.Register(NodeID(i), func(m Message) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Send(Message{From: 0, To: Broadcast, Kind: "b", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tcp broadcast incomplete")
	}
}

func TestTCPUnknownNode(t *testing.T) {
	n := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0"})
	defer n.Close()
	n.Register(0, func(Message) {})
	if err := n.Send(Message{From: 0, To: 9}); err == nil {
		t.Fatal("send to unknown tcp node succeeded")
	}
}

// bytePayload is a typed payload that encodes itself as its one byte.
type bytePayload byte

func (p bytePayload) AppendBinary(b []byte) ([]byte, error) { return append(b, byte(p)), nil }

func TestTCPConcurrentSenders(t *testing.T) {
	addrs := map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	n := NewTCPNetwork(addrs)
	defer n.Close()
	var sum atomic.Int64
	var count atomic.Int64
	done := make(chan struct{})
	n.Register(0, func(m Message) {
		sum.Add(int64(m.Payload.([]byte)[0]))
		if count.Add(1) == 200 {
			close(done)
		}
	})
	n.Register(1, func(Message) {})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := n.Send(Message{From: 1, To: 0, Payload: bytePayload(1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/200 messages arrived", count.Load())
	}
	if sum.Load() != 200 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestCostModelPresets(t *testing.T) {
	for name, m := range map[string]CostModel{
		"FDR": FDRInfiniBand(), "GbE": GigabitEthernet(),
	} {
		if m.BytesPerSec <= 0 || m.Latency <= 0 {
			t.Errorf("%s preset incomplete: %+v", name, m)
		}
	}
	if FDRInfiniBand().BytesPerSec <= GigabitEthernet().BytesPerSec {
		t.Error("InfiniBand should be faster than GbE")
	}
}
