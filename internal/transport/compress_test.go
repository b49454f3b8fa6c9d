package transport

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/compress"
	"github.com/hamr-go/hamr/internal/metrics"
)

// shufflePayload mimics a shuffle bin: a compressible word payload that
// crosses a byte boundary as newline-terminated words.
type shufflePayload struct {
	Words []string
}

func (p *shufflePayload) AppendBinary(b []byte) ([]byte, error) {
	for _, w := range p.Words {
		b = append(append(b, w...), '\n')
	}
	return b, nil
}

// wordsOf reads a shufflePayload in either shape a handler can be handed:
// the sender's own value, or its bytes.
func wordsOf(m Message) []string {
	switch p := m.Payload.(type) {
	case *shufflePayload:
		return p.Words
	case []byte:
		return strings.Split(strings.TrimSuffix(string(p), "\n"), "\n")
	}
	return nil
}

func shuffleMsg(i int, to NodeID) Message {
	words := make([]string, 12)
	for j := range words {
		words[j] = fmt.Sprintf("word-%03d", (i+j)%50)
	}
	return Message{From: 1, To: to, Kind: "kv", Payload: &shufflePayload{Words: words}, Size: 12 * 9}
}

// TestCoalescerCompression: with a codec enabled, batches arrive intact
// and in order while net.bytes (charged on wire frames) drops below the
// raw modeled total.
func TestCoalescerCompression(t *testing.T) {
	reg := metrics.NewRegistry()
	n := NewInMemNetwork(CostModel{}, reg)
	defer n.Close()
	n.Use(Env{Decode: &compress.Meter{}})
	meter := &compress.Meter{
		In:      reg.Counter("compress.in.bytes"),
		Out:     reg.Counter("compress.out.bytes"),
		Skipped: reg.Counter("compress.skipped"),
		SiteOut: reg.Counter("net.compressed.bytes"),
	}
	co := NewCoalescer(n, CoalescerConfig{
		MaxBytes: 4 << 10, MaxMsgs: 16, MaxAge: time.Hour,
		Compress: compress.Config{Codec: compress.LZ{}, MinBytes: 64, Meter: meter},
	})
	defer co.Close()

	const msgs = 200
	var got [][]string
	var mu sync.Mutex
	allIn := make(chan struct{})
	if err := co.Register(0, func(m Message) {
		mu.Lock()
		got = append(got, wordsOf(m))
		if len(got) == msgs {
			close(allIn)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	var raw int64
	for i := 0; i < msgs; i++ {
		m := shuffleMsg(i, 0)
		raw += m.Size
		if err := co.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-allIn:
	case <-time.After(5 * time.Second):
		t.Fatal("compressed stream never fully delivered")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(got) != msgs {
		t.Fatalf("handler saw %d messages, want %d", len(got), msgs)
	}
	for i, words := range got {
		if want := shuffleMsg(i, 0).Payload.(*shufflePayload).Words; !reflect.DeepEqual(words, want) {
			t.Fatalf("message %d words = %q, want %q", i, words, want)
		}
	}
	wire := reg.Counter("net.bytes").Value()
	if wire >= raw {
		t.Fatalf("net.bytes = %d with compression, raw total %d: no reduction", wire, raw)
	}
	if out := reg.Counter("net.compressed.bytes").Value(); out == 0 || out > wire {
		t.Fatalf("net.compressed.bytes = %d (wire %d)", out, wire)
	}
	if in := reg.Counter("compress.in.bytes").Value(); in == 0 {
		t.Fatal("compress.in.bytes not counted")
	}
	t.Logf("raw %d -> wire %d (%.2fx), skipped %d", raw, wire,
		float64(raw)/float64(wire), reg.Counter("compress.skipped").Value())
}

// TestCoalescerCompressedFlushThreshold is the satellite fix: with
// compression on, a batch whose estimated wire size is under MaxBytes
// keeps coalescing past the raw threshold instead of flushing early, so
// fewer (larger) frames hit the network for the same traffic.
func TestCoalescerCompressedFlushThreshold(t *testing.T) {
	run := func(cc compress.Config) int64 {
		reg := metrics.NewRegistry()
		n := NewInMemNetwork(CostModel{}, reg)
		defer n.Close()
		co := NewCoalescer(n, CoalescerConfig{
			MaxBytes: 2 << 10, MaxMsgs: 1 << 20, MaxAge: time.Hour, Compress: cc,
		})
		defer co.Close()
		const msgs = 400
		var seen atomic.Int64
		allIn := make(chan struct{})
		if err := co.Register(0, func(Message) {
			if seen.Add(1) == msgs {
				close(allIn)
			}
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < msgs; i++ {
			if err := co.Send(shuffleMsg(i, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := co.Flush(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-allIn:
		case <-time.After(5 * time.Second):
			t.Fatal("coalesced frames never fully delivered")
		}
		return reg.Counter("net.msgs").Value()
	}

	plain := run(compress.Config{})
	compressed := run(compress.Config{Codec: compress.LZ{}, MinBytes: 64})
	if compressed >= plain {
		t.Fatalf("compressed run sent %d frames, plain %d: post-compression threshold not in effect", compressed, plain)
	}
	t.Logf("frames: plain %d, compressed %d", plain, compressed)
}

// TestCoalescerCompressionRawCap: even if data compresses extremely well,
// buffered raw bytes must stay bounded by rawCapFactor×MaxBytes.
func TestCoalescerCompressionRawCap(t *testing.T) {
	reg := metrics.NewRegistry()
	n := NewInMemNetwork(CostModel{}, reg)
	defer n.Close()
	const maxBytes = 1 << 10
	co := NewCoalescer(n, CoalescerConfig{
		MaxBytes: maxBytes, MaxMsgs: 1 << 20, MaxAge: time.Hour,
		Compress: compress.Config{Codec: compress.LZ{}, MinBytes: 1},
	})
	defer co.Close()
	if err := co.Register(0, func(Message) {}); err != nil {
		t.Fatal(err)
	}
	// All-identical payloads compress to nearly nothing; without the cap
	// the buffer would grow until Flush.
	for i := 0; i < 10000; i++ {
		if err := co.Send(Message{From: 1, To: 0, Kind: "kv",
			Payload: &shufflePayload{Words: []string{"same", "same"}}, Size: 64}); err != nil {
			t.Fatal(err)
		}
		d := co.dest(0)
		d.mu.Lock()
		buffered := d.bytes
		d.mu.Unlock()
		if buffered > rawCapFactor*maxBytes {
			t.Fatalf("buffered %d raw bytes, cap %d", buffered, rawCapFactor*maxBytes)
		}
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPCompressedBatch: a KindBatchZ frame crosses the real TCP
// transport and unpacks into the original messages.
func TestTCPCompressedBatch(t *testing.T) {
	net := NewTCPNetwork(map[NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"})
	defer net.Close()
	net.Use(Env{Decode: &compress.Meter{}})

	var got [][]string
	var mu sync.Mutex
	done := make(chan struct{})
	if err := net.Register(0, func(m Message) {
		mu.Lock()
		got = append(got, wordsOf(m))
		if len(got) == 50 {
			close(done)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := net.Register(1, func(Message) {}); err != nil {
		t.Fatal(err)
	}

	co := NewCoalescer(net, CoalescerConfig{
		MaxBytes: 64 << 10, MaxMsgs: 50, MaxAge: time.Hour,
		Compress: compress.Config{Codec: compress.LZ{}, MinBytes: 64},
	})
	defer co.Close()
	for i := 0; i < 50; i++ {
		if err := co.Send(shuffleMsg(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("timeout: %d of 50 messages arrived", len(got))
	}
	mu.Lock()
	defer mu.Unlock()
	for i, words := range got {
		if len(words) != 12 || words[0] != fmt.Sprintf("word-%03d", i%50) {
			t.Fatalf("message %d corrupted: %q", i, words)
		}
	}
}
