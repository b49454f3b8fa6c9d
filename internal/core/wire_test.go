package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/hamr-go/hamr/internal/transport"
)

// wireBin fills a slab from l with n pairs of every value shape the
// benchmarks shuffle.
func wireBin(l *binList, r *rand.Rand, n int) *Bin {
	b := l.get()
	b.Job, b.Edge, b.Flowlet, b.From = r.Int63(), r.Intn(9), r.Intn(9), r.Intn(64)
	for i := 0; i < n; i++ {
		kv := KV{Key: fmt.Sprintf("key-%d", r.Intn(1000))}
		switch r.Intn(4) {
		case 0:
			kv.Value = r.Int63()
		case 1:
			kv.Value = fmt.Sprint("v", r.Int63())
		case 2:
			kv.Value = []float64{r.Float64(), r.Float64()}
		}
		b.KVs = append(b.KVs, kv)
		b.Bytes += kv.Size()
	}
	return b
}

// sameBin compares everything of a bin that crosses the wire.
func sameBin(a, b *Bin) bool {
	return a.Job == b.Job && a.Edge == b.Edge && a.Flowlet == b.Flowlet && a.From == b.From && a.Last == b.Last &&
		a.Bytes == b.Bytes && len(a.KVs) == len(b.KVs) && (len(a.KVs) == 0 || reflect.DeepEqual(a.KVs, b.KVs))
}

// TestWirePayloadRoundTrips: each of the four payloads decodes to what was
// encoded, and a decoded bin sits in a slab of the decoding list.
func TestWirePayloadRoundTrips(t *testing.T) {
	check := func(name string, f any) {
		t.Helper()
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("ack", func(m ackMsg) bool {
		b, _ := m.AppendBinary(nil)
		got, err := decodeAck(b)
		return err == nil && got == m
	})
	check("complete", func(m completeMsg) bool {
		b, _ := m.AppendBinary(nil)
		got, err := decodeComplete(b)
		return err == nil && got == m
	})
	check("fail", func(m failMsg) bool {
		b, _ := m.AppendBinary(nil)
		got, err := decodeFail(b)
		return err == nil && got == m
	})
	check("bin", func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		from, to := &binList{size: 16}, &binList{size: 16}
		sent := wireBin(from, r, int(n)%17)
		sent.Last = n%2 == 1
		b, err := sent.AppendBinary(nil)
		if err != nil {
			t.Error(err)
			return false
		}
		got, err := to.decode(b)
		if err != nil || !sameBin(got, sent) || got.home != to || cap(got.KVs) != 16 {
			t.Errorf("decode = %+v, %v; sent %+v", got, err, sent)
			return false
		}
		sent.Release()
		got.release()
		return from.out == 0 && to.out == 0
	})
}

// hostileBins are bin payloads a receiver must refuse: each is a counted
// drop, never a panic, and the slab drawn for it goes back on the list.
func hostileBins(t testing.TB) map[string][]byte {
	l := &binList{size: 4}
	r := rand.New(rand.NewSource(1))
	whole, err := wireBin(l, r, 4).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	extra, _ := EncodeKV(nil, KV{Key: "fifth", Value: int64(5)})
	shortHdr, _ := EncodeValue(nil, []int64{1, 2, 3})
	notInts, _ := EncodeValue(nil, "header")
	return map[string][]byte{
		"empty":                              {},
		"more pairs than a slab holds":       append(append([]byte(nil), whole...), extra...),
		"pair cut short":                     whole[:len(whole)-3],
		"header of three":                    shortHdr,
		"header that is a string":            notInts,
		"header count the input cannot back": counted(tagInt64Slice, math.MaxInt64),
		"header count past 64 bits":          overlong(tagInt64Slice),
	}
}

// FuzzDecodeBin holds the bin decoder to what FuzzDecodeValue holds the
// value codec to, and to the slab ledger: a refused input leaves no slab
// out, and an accepted one encodes again to a bin that decodes the same.
func FuzzDecodeBin(f *testing.F) {
	seeds := &binList{size: 4}
	r := rand.New(rand.NewSource(2))
	for n := 0; n <= 4; n++ {
		bin := wireBin(seeds, r, n)
		bin.Last = n == 2 // the final bin a producer flushes to a node
		b, err := bin.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, b := range hostileBins(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		l := &binList{size: 4, max: 1}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		bin, err := l.decode(b)
		runtime.ReadMemStats(&m1)
		if alloc, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(64*len(b)+1<<20); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(b), alloc, limit)
		}
		if err != nil {
			if bin != nil || l.out != 0 {
				t.Fatalf("refused input left bin %v, %d slabs out", bin, l.out)
			}
			return
		}
		enc, err := bin.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded %+v does not encode: %v", bin, err)
		}
		again, err := l.decode(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		// NaN is not DeepEqual to itself, so either the bins or their
		// encodings must agree.
		if enc2, _ := again.AppendBinary(nil); !sameBin(bin, again) && !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip %+v -> %+v", bin, again)
		}
		bin.release()
		again.release()
		if l.out != 0 || len(l.free) != 1 {
			t.Fatalf("after release: %d out, %d free", l.out, len(l.free))
		}
	})
}

// TestHandleDropsWhatItCannotDecode: per kind, handle takes the sender's
// own value or its bytes; anything else, and bytes that do not decode, is a
// counted bins.dropped with every slab home.
func TestHandleDropsWhatItCannotDecode(t *testing.T) {
	nodes, cleanup := newTestCluster(t, 1, Config{BinSize: 4})
	defer cleanup()
	rt := nodes[0]
	var bad []transport.Message
	for _, b := range hostileBins(t) {
		bad = append(bad, transport.Message{Kind: msgBin, Payload: b})
	}
	goodBin, err := wireBin(&binList{size: 4}, rand.New(rand.NewSource(3)), 2).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad = append(bad,
		transport.Message{Kind: msgBin, Payload: goodBin}, // decodes, but its job is unknown here
		transport.Message{Kind: msgBin, Payload: Bin{}},   // by value: not a shape a sender produces
		transport.Message{Kind: msgAck, Payload: &ackMsg{}},
		transport.Message{Kind: msgAck, Payload: goodBin},
		transport.Message{Kind: msgComplete, Payload: []byte{byte(tagInt64Slice)}},
		transport.Message{Kind: msgFail, Payload: "text"},
		transport.Message{Kind: msgFail, Payload: goodBin[:20]},
	)
	for _, m := range bad {
		rt.handle(m)
	}
	if got := rt.Metrics().Snapshot().Get("bins.dropped"); got != int64(len(bad)) {
		t.Errorf("bins.dropped = %d, want %d", got, len(bad))
	}
	if rt.bins.out != 0 {
		t.Errorf("%d slabs out after the drops", rt.bins.out)
	}
	// The same kinds as bytes that do decode are not drops (the jobs they
	// name are unknown here, which for these three is a normal straggler).
	for _, m := range []transport.Message{
		{Kind: msgAck, Payload: ackMsg{Job: 1}}, {Kind: msgComplete, Payload: completeMsg{Job: 1}}, {Kind: msgFail, Payload: failMsg{Job: 1}},
	} {
		b, _ := m.Payload.(interface{ AppendBinary([]byte) ([]byte, error) }).AppendBinary(nil)
		rt.handle(m)
		rt.handle(transport.Message{Kind: m.Kind, Payload: b})
	}
	if got := rt.Metrics().Snapshot().Get("bins.dropped"); got != int64(len(bad)) {
		t.Errorf("bins.dropped = %d after well-formed stragglers, want %d", got, len(bad))
	}
}
