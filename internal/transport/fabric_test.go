package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
)

// closeInbox closes one node's inbox and waits for its delivery goroutine
// to exit, leaving the node in the routing snapshot (white-box: the public
// API closes inboxes only all at once, in Close).
func closeInbox(n *InMemNetwork, id NodeID) {
	ib := n.routes.Load().lookup(id)
	ib.mu.Lock()
	ib.closed = true
	ib.cond.Broadcast()
	ib.mu.Unlock()
	<-ib.done
}

// TestInMemBroadcastBestEffort: a closed inbox mid-broadcast must not
// abort the fan-out — remaining nodes still get the message and the skip
// is counted in net.dropped. (The pre-ring implementation returned an
// error after some nodes had already received the broadcast.)
func TestInMemBroadcastBestEffort(t *testing.T) {
	reg := metrics.NewRegistry()
	n := NewInMemNetwork(CostModel{}, reg)
	defer n.Close()

	var got [3]atomic.Int64
	recv := make(chan int, 3)
	for i := 0; i < 3; i++ {
		i := i
		if err := n.Register(NodeID(i), func(Message) {
			got[i].Add(1)
			recv <- i
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Force the mid-broadcast race deterministically: close node 1's inbox
	// while it is still present in the routing snapshot (via the public API
	// the window only opens between a snapshot load in Send and a
	// concurrent Close).
	closeInbox(n, 1)

	if err := n.Send(Message{From: 0, To: Broadcast, Kind: "b", Size: 10}); err != nil {
		t.Fatalf("best-effort broadcast returned error: %v", err)
	}
	for j := 0; j < 2; j++ { // one delivery each to the two open nodes
		select {
		case <-recv:
		case <-time.After(5 * time.Second):
			t.Fatal("broadcast never reached both open nodes")
		}
	}
	if got[0].Load() != 1 || got[2].Load() != 1 {
		t.Fatalf("open nodes got %d/%d broadcasts, want 1/1", got[0].Load(), got[2].Load())
	}
	if got[1].Load() != 0 {
		t.Fatalf("closed node got %d broadcasts, want 0", got[1].Load())
	}
	if d := reg.Counter("net.dropped").Value(); d != 1 {
		t.Fatalf("net.dropped = %d, want 1", d)
	}
	// Only the two delivered copies are accounted.
	if b := reg.Counter("net.bytes").Value(); b != 20 {
		t.Fatalf("net.bytes = %d, want 20", b)
	}
}

// TestInMemRingCapacityBounded: sustained send/drain traffic must not grow
// the inbox ring — the old queue = queue[1:] slice leaked its head and
// grew its backing array without bound.
func TestInMemRingCapacityBounded(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	block := make(chan struct{}, 1)
	ack := make(chan struct{}, 8)
	if err := n.Register(0, func(Message) { <-block; ack <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	const rounds, perRound = 200, 8
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			if err := n.Send(Message{From: 1, To: 0, Payload: make([]byte, 64)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < perRound; i++ {
			block <- struct{}{}
		}
		for i := 0; i < perRound; i++ { // every send of the round delivered
			select {
			case <-ack:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: delivery %d never arrived", r, i)
			}
		}
	}
	// High-water mark per round is perRound messages; the ring's minimum
	// allocation is 16. Anything bigger means the queue retained slack
	// across rounds.
	if c := n.queueCap(0); c > 16 {
		t.Fatalf("ring capacity grew to %d after %d send/drain rounds (high-water %d)", c, rounds, perRound)
	}
}

// TestInMemConcurrentStress exercises Send/Register/QueueDepth
// concurrently; run under -race in CI. All successfully sent unicasts must
// be delivered exactly once before Close returns.
func TestInMemConcurrentStress(t *testing.T) {
	reg := metrics.NewRegistry()
	n := NewInMemNetwork(CostModel{}, reg)

	const stable = 4 // nodes that live for the whole test
	var delivered atomic.Int64
	for i := 0; i < stable; i++ {
		if err := n.Register(NodeID(i), func(Message) { delivered.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}

	var sent atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := n.Send(Message{From: NodeID(g), To: NodeID(i % stable), Size: 1}); err == nil {
					sent.Add(1)
				}
			}
		}(g)
	}
	// Churn the routing table by registering fresh nodes while sends fly.
	// The churn's 200 rounds, not a wall-clock sleep, set the stress
	// duration: the senders run exactly as long as there is churn to race
	// against.
	churnDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(churnDone)
		for i := 0; i < 200; i++ {
			id := NodeID(stable + i)
			if err := n.Register(id, func(Message) {}); err != nil {
				t.Errorf("register %d: %v", id, err)
				return
			}
			_ = n.Send(Message{From: 0, To: id})
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for i := 0; i < stable; i++ {
					_ = n.QueueDepth(NodeID(i))
				}
			}
		}
	}()

	<-churnDone
	close(stop)
	wg.Wait()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if delivered.Load() != sent.Load() {
		t.Fatalf("delivered %d of %d successfully sent messages", delivered.Load(), sent.Load())
	}
}

// TestCoalescerBytesInvariant: coalescing must not change net.bytes —
// the batch frame's modeled size is the sum of its members — while the
// frame count must actually drop.
func TestCoalescerBytesInvariant(t *testing.T) {
	reg := metrics.NewRegistry()
	n := NewInMemNetwork(CostModel{}, reg)
	defer n.Close()
	co := NewCoalescer(n, CoalescerConfig{MaxBytes: 1 << 20, MaxMsgs: 8})
	defer co.Close()

	const msgs = 100
	var order []int64
	var mu sync.Mutex
	allIn := make(chan struct{})
	if err := co.Register(0, func(m Message) {
		mu.Lock()
		order = append(order, m.Size)
		if len(order) == msgs {
			close(allIn)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	var want int64
	for i := 0; i < msgs; i++ {
		sz := int64(i + 1)
		want += sz
		if err := co.Send(Message{From: 1, To: 0, Kind: "kv", Size: sz}); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-allIn:
	case <-time.After(5 * time.Second):
		t.Fatal("coalesced stream never fully delivered")
	}

	if got := reg.Counter("net.bytes").Value(); got != want {
		t.Fatalf("net.bytes = %d after coalescing, want %d (invariant: framing never changes byte totals)", got, want)
	}
	if frames := reg.Counter("net.msgs").Value(); frames >= msgs || frames < msgs/8 {
		t.Fatalf("net.msgs = %d frames for %d messages with MaxMsgs=8", frames, msgs)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != msgs {
		t.Fatalf("handler saw %d messages, want %d", len(order), msgs)
	}
	for i, sz := range order {
		if sz != int64(i+1) {
			t.Fatalf("message %d arrived with size %d: coalescing reordered the stream", i, sz)
		}
	}
}

// TestCoalescerBarriers: a large message and a broadcast must both flush
// pending traffic ahead of themselves so per-receiver order is preserved.
func TestCoalescerBarriers(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	co := NewCoalescer(n, CoalescerConfig{MaxBytes: 1 << 10, MaxMsgs: 1 << 20})
	defer co.Close()

	var mu sync.Mutex
	var kinds []string
	allIn := make(chan struct{})
	for i := 0; i < 2; i++ {
		node := i // broadcasts arrive with To == Broadcast; key by receiver
		if err := co.Register(NodeID(node), func(m Message) {
			mu.Lock()
			kinds = append(kinds, fmt.Sprintf("%d:%s", node, m.Kind))
			if len(kinds) == 5 {
				close(allIn)
			}
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Small message buffers; oversized message must arrive after it.
	if err := co.Send(Message{From: 1, To: 0, Kind: "small", Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := co.Send(Message{From: 1, To: 0, Kind: "big", Size: 4 << 10}); err != nil {
		t.Fatal(err)
	}
	// Buffered small to node 1, then broadcast: flush-before-broadcast.
	if err := co.Send(Message{From: 1, To: 1, Kind: "small", Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := co.Send(Message{From: 1, To: Broadcast, Kind: "done", Size: 4}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-allIn:
	case <-time.After(5 * time.Second):
		t.Fatal("barrier deliveries incomplete")
	}

	mu.Lock()
	defer mu.Unlock()
	pos := map[string]int{}
	for i, k := range kinds {
		pos[k] = i
	}
	if len(kinds) != 5 {
		t.Fatalf("got %d deliveries %v, want 5", len(kinds), kinds)
	}
	if pos["0:small"] > pos["0:big"] {
		t.Errorf("large-message barrier broken: %v", kinds)
	}
	if pos["0:small"] > pos["0:done"] || pos["1:small"] > pos["1:done"] {
		t.Errorf("broadcast barrier broken: %v", kinds)
	}
}
