package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// wireMsg draws a message whose payload is one of the shapes the wire form
// carries: nil, bytes (empty included), or a nested batch.
func wireMsg(r *rand.Rand, depth int) Message {
	kind := make([]byte, r.Intn(12)) // the empty kind included
	r.Read(kind)
	m := Message{
		From: NodeID(r.Intn(1<<16) - 1), To: NodeID(r.Intn(1<<16) - 1), // Broadcast included
		Kind: string(kind), Size: r.Int63() - r.Int63(),
	}
	switch r.Intn(3 + depth) {
	case 0:
	case 1, 2:
		p := make([]byte, r.Intn(40))
		r.Read(p)
		m.Payload = p
	default:
		bp := &BatchPayload{}
		for i := r.Intn(4); i > 0; i-- {
			bp.Msgs = append(bp.Msgs, wireMsg(r, depth-1))
		}
		m.Payload = bp
	}
	return m
}

// asBytes is what the far side is handed for m: a nested batch arrives as
// the bytes of its messages.
func asBytes(t *testing.T, m Message) Message {
	if bp, ok := m.Payload.(*BatchPayload); ok {
		b, err := bp.AppendBinary([]byte{})
		if err != nil {
			t.Fatal(err)
		}
		m.Payload = b
	}
	return m
}

// TestWireRoundTrip: any message reads back as itself, from the front of
// whatever follows it, and a batch that crossed as bytes unpacks into the
// messages it was built from.
func TestWireRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := wireMsg(r, 2)
		b, err := appendMessage([]byte("ahead"), m)
		if err != nil {
			t.Error(err)
			return false
		}
		b = append(b, "behind"...)
		got, n, err := readMessage(b[len("ahead"):])
		if err != nil || n != len(b)-len("ahead")-len("behind") {
			t.Errorf("readMessage = %d bytes, %v", n, err)
			return false
		}
		if want := asBytes(t, m); !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %+v -> %+v", want, got)
			return false
		}
		if bp, ok := m.Payload.(*BatchPayload); ok {
			var inner []Message
			if err := readBatch(func(im Message) { inner = append(inner, im) }, got.Payload.([]byte)); err != nil {
				t.Error(err)
				return false
			}
			for i := range bp.Msgs {
				if !reflect.DeepEqual(inner[i], asBytes(t, bp.Msgs[i])) {
					t.Errorf("batched message %d: %+v -> %+v", i, bp.Msgs[i], inner[i])
					return false
				}
			}
			return len(inner) == len(bp.Msgs)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWireUnencodablePayload: a payload that cannot turn itself into bytes
// is an error naming its type, and dst comes back as it went in.
func TestWireUnencodablePayload(t *testing.T) {
	b, err := appendMessage([]byte("x"), Message{Kind: "k", Payload: 42})
	if err == nil || string(b) != "x" {
		t.Fatalf("appendMessage(int payload) = %q, %v", b, err)
	}
}

// FuzzReadMessage holds readMessage to what a decoder of bytes off a socket
// owes its caller: it never panics, allocates no more than a small multiple
// of the input, and what it accepts is the one encoding of the message it
// returns.
func FuzzReadMessage(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b, err := appendMessage(nil, wireMsg(r, 2))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	hdr := make([]byte, headerLen)
	f.Add(hdr[:headerLen-1])                                                         // short header
	f.Add(append(hdr[:headerLen-8:headerLen-8], 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)) // kind length past the input
	f.Add(append(hdr[:headerLen-4:headerLen-4], 0xff, 0xff, 0xff, 0xff))             // payload length past the input
	f.Fuzz(func(t *testing.T, b []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		msg, n, err := readMessage(b)
		runtime.ReadMemStats(&m1)
		// TotalAlloc is the whole process's: the constant is slack for what
		// other tests' goroutines allocate meanwhile, far below any length
		// a header can claim.
		if alloc, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(4*len(b)+1<<20); alloc > limit {
			t.Fatalf("reading %d bytes allocated %d, limit %d", len(b), alloc, limit)
		}
		if err != nil {
			return
		}
		if again, err := appendMessage(nil, msg); err != nil || n > len(b) || !bytes.Equal(again, b[:n]) {
			t.Fatalf("read %x as %+v, which encodes as %x (%v)", b[:n], msg, again, err)
		}
	})
}

// countedPayload counts the fabric's Release calls.
type countedPayload struct {
	released *atomic.Int64
	body     []byte
}

func (p countedPayload) AppendBinary(b []byte) ([]byte, error) { return append(b, p.body...), nil }
func (p countedPayload) Release()                              { p.released.Add(1) }

// TestReleaseOncePerCommittedFrame: a payload is released exactly when its
// bytes have replaced it — each unicast payload of a TCP frame once; never
// in a coalesced pointer batch, never in process, never per copy of a
// broadcast.
func TestReleaseOncePerCommittedFrame(t *testing.T) {
	var released atomic.Int64
	msg := func(to NodeID, body []byte) Message {
		return Message{From: 1, To: to, Kind: "k", Payload: countedPayload{&released, body}, Size: int64(len(body))}
	}
	noise := make([]byte, 1024)
	rand.New(rand.NewSource(7)).Read(noise)

	mem := NewInMemNetwork(CostModel{}, nil)
	defer mem.Close()
	var delivered atomic.Int64
	if err := mem.Register(0, func(Message) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	co := NewCoalescer(mem, CoalescerConfig{MaxBytes: 1 << 20, MaxMsgs: 1 << 20, MaxAge: time.Hour})
	defer co.Close()
	for i := 0; i < 4; i++ {
		if err := co.Send(msg(0, noise[i*256:(i+1)*256])); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	mem.Quiesce()
	if got := released.Load(); got != 0 {
		t.Errorf("coalesced in process: %d releases, want 0", got)
	}
	if delivered.Load() != 4 {
		t.Fatalf("delivered %d of 4 messages", delivered.Load())
	}

	tcp := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	defer tcp.Close()
	got := make(chan struct{}, 8)
	for i := 0; i < 2; i++ {
		if err := tcp.Register(NodeID(i), func(Message) { got <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
	}
	released.Store(0)
	batch := Message{From: 1, To: 0, Kind: KindBatch,
		Payload: &BatchPayload{Msgs: []Message{msg(0, noise), msg(0, noise)}}}
	for _, m := range []Message{msg(0, noise), batch, msg(Broadcast, noise)} {
		if err := tcp.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ { // 1 unicast + 2 batched + 2 broadcast copies
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("tcp delivered %d of 5 messages", i)
		}
	}
	if got := released.Load(); got != 3 {
		t.Errorf("tcp: %d releases, want 3 (one unicast, two batched, none for the broadcast)", got)
	}
}

// TestTCPHostileFrames: whatever a peer writes to the socket, the receiving
// process closes that connection and carries on — it does not panic, and a
// length prefix does not size an allocation.
func TestTCPHostileFrames(t *testing.T) {
	n := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	defer n.Close()
	got := make(chan Message, 4)
	for i := 0; i < 2; i++ {
		if err := n.Register(NodeID(i), func(m Message) { got <- keep(m) }); err != nil {
			t.Fatal(err)
		}
	}
	frame := func(body []byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	}
	whole, err := appendMessage(nil, Message{From: 1, To: 0, Kind: "k", Payload: []byte("whole")})
	if err != nil {
		t.Fatal(err)
	}
	badBatch, err := appendMessage(nil, Message{From: 1, To: 0, Kind: KindBatch, Payload: whole[:len(whole)-1]})
	if err != nil {
		t.Fatal(err)
	}
	for name, wire := range map[string][]byte{
		"length prefix past maxFrame": binary.AppendUvarint(nil, 1<<40),
		"one and a half messages":     frame(append(append([]byte(nil), whole...), whole[:len(whole)/2]...)),
		"half a message":              frame(whole[:len(whole)/2]),
		"batch cut short":             frame(badBatch),
	} {
		c, err := net.Dial("tcp", n.Addr(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%s: read = %v, want the connection closed", name, err)
		}
		c.Close()
	}
	// "one and a half messages" is refused whole: nothing of it is delivered.
	if err := n.Send(Message{From: 1, To: 0, Kind: "after", Payload: []byte("still up")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Kind != "after" {
			t.Fatalf("a hostile frame was delivered: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node stopped receiving after hostile frames")
	}
}
