package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
)

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
	// while it is still present in the routing snapshot (white-box — via
	// the public API the window only opens between a snapshot load in Send
	// and a concurrent Unregister).
	ib := n.routes.Load().lookup(1)
	ib.mu.Lock()
	ib.closed = true
	ib.cond.Broadcast()
	ib.mu.Unlock()
	<-ib.done

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

// TestInMemUnregister: queued messages drain, then unicast sends fail and
// broadcasts skip the node without error.
func TestInMemUnregister(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	var delivered atomic.Int64
	if err := n.Register(0, func(Message) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(1, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := n.Send(Message{From: 1, To: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Unregister(0); err != nil {
		t.Fatal(err)
	}
	if delivered.Load() != 10 {
		t.Fatalf("delivered %d queued messages across Unregister, want 10", delivered.Load())
	}
	if err := n.Send(Message{From: 1, To: 0}); err == nil {
		t.Fatal("unicast to unregistered node succeeded")
	}
	if err := n.Send(Message{From: 1, To: Broadcast}); err != nil {
		t.Fatalf("broadcast after unregister: %v", err)
	}
	if err := n.Unregister(0); err == nil {
		t.Fatal("double unregister succeeded")
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

// TestInMemConcurrentStress exercises Send/Register/Unregister/QueueDepth
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
	// Churn extra nodes through Register/Unregister while sends fly. The
	// churn's 200 rounds, not a wall-clock sleep, set the stress duration:
	// the senders run exactly as long as there is churn to race against.
	churnDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(churnDone)
		for i := 0; i < 200; i++ {
			id := NodeID(stable + i%8)
			if err := n.Register(id, func(Message) {}); err != nil {
				t.Errorf("register %d: %v", id, err)
				return
			}
			_ = n.Send(Message{From: 0, To: id})
			if err := n.Unregister(id); err != nil {
				t.Errorf("unregister %d: %v", id, err)
				return
			}
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
	co := NewCoalescer(n, CoalescerConfig{MaxBytes: 1 << 20, MaxMsgs: 8, MaxAge: time.Hour})
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
	co := NewCoalescer(n, CoalescerConfig{MaxBytes: 1 << 10, MaxMsgs: 1 << 20, MaxAge: time.Hour})
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

// TestCoalescerAgeFlush: without reaching any size threshold, buffered
// messages must still go out within ~MaxAge.
func TestCoalescerAgeFlush(t *testing.T) {
	n := NewInMemNetwork(CostModel{}, nil)
	defer n.Close()
	co := NewCoalescer(n, CoalescerConfig{MaxBytes: 1 << 20, MaxMsgs: 1 << 20, MaxAge: 2 * time.Millisecond})
	defer co.Close()
	got := make(chan Message, 4)
	if err := co.Register(0, func(m Message) { got <- m }); err != nil {
		t.Fatal(err)
	}
	if err := co.Send(Message{From: 1, To: 0, Kind: "lonely", Size: 8}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Kind != "lonely" {
			t.Fatalf("got kind %q", m.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("age flush never fired")
	}
	// The timer re-arms for later sends, too.
	if err := co.Send(Message{From: 1, To: 0, Kind: "second", Size: 8}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Kind != "second" {
			t.Fatalf("got kind %q", m.Kind)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("age flush did not re-arm")
	}
}

// TestTCPLargePayload: multi-MB payloads must round-trip intact through
// the framed stream.
func TestTCPLargePayload(t *testing.T) {
	addrs := map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	n := NewTCPNetwork(addrs)
	defer n.Close()

	got := make(chan Message, 1)
	if err := n.Register(0, func(m Message) { got <- keep(m) }); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(1, func(m Message) { got <- keep(m) }); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 3<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := n.Send(Message{From: 0, To: 1, Kind: "blob", Payload: payload, Size: int64(len(payload))}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		b, ok := m.Payload.([]byte)
		if !ok {
			t.Fatalf("payload type %T", m.Payload)
		}
		if len(b) != len(payload) {
			t.Fatalf("payload length %d, want %d", len(b), len(payload))
		}
		for i := range b {
			if b[i] != payload[i] {
				t.Fatalf("payload corrupted at byte %d", i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout waiting for 3MB payload")
	}
}

// TestTCPCoalescedFrames: a Coalescer over TCPNetwork delivers batch
// frames that unpack transparently, in order, on the receiving side.
func TestTCPCoalescedFrames(t *testing.T) {
	addrs := map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	tcp := NewTCPNetwork(addrs)
	defer tcp.Close()
	co := NewCoalescer(tcp, CoalescerConfig{MaxBytes: 1 << 20, MaxMsgs: 16, MaxAge: time.Hour})
	defer co.Close()

	const msgs = 64
	got := make(chan Message, msgs)
	if err := co.Register(0, func(m Message) { got <- keep(m) }); err != nil {
		t.Fatal(err)
	}
	if err := co.Register(1, func(m Message) { got <- keep(m) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		if err := co.Send(Message{From: 0, To: 1, Kind: "kv", Payload: []byte(fmt.Sprintf("m%03d", i)), Size: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		select {
		case m := <-got:
			if want := fmt.Sprintf("m%03d", i); string(m.Payload.([]byte)) != want {
				t.Fatalf("message %d: payload %v, want %q (batch unpack must preserve order)", i, m.Payload, want)
			}
			if m.Kind != "kv" {
				t.Fatalf("message %d: kind %q leaked framing", i, m.Kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout: received %d of %d coalesced messages", i, msgs)
		}
	}
}
