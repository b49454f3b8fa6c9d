package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTripValue(t *testing.T, v any) any {
	t.Helper()
	buf, err := EncodeValue(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, n, err := DecodeValue(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	if n != len(buf) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
	}
	return got
}

// codecValues reach every layout's edges: varints of one and ten bytes,
// infinite floats, and strings empty, multi-byte and past a one-byte length.
var codecValues = []any{
	int64(0), int64(-5), int64(math.MaxInt64), int64(math.MinInt64),
	float64(3.25), math.Inf(1), math.Inf(-1),
	"", "hello", "unicode ✓ ☃", strings.Repeat("x", 200),
}

func TestCodecScalars(t *testing.T) {
	for _, v := range codecValues {
		if got := roundTripValue(t, v); got != v {
			t.Errorf("round trip %#v -> %#v", v, got)
		}
	}
}

// TestCodecUnregisteredTypes: the type set is closed. A value outside it
// fails at encode with an error naming its type — an int too, which a
// reduce flowlet would otherwise read back after a spill as another type.
func TestCodecUnregisteredTypes(t *testing.T) {
	type plain struct{ N int }
	for _, v := range []any{int(42), nil, int32(1), []byte("b"), []float64{1}, plain{N: 1}} {
		_, err := EncodeValue(nil, v)
		if want := fmt.Sprintf("%T", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("EncodeValue(%s) = %v, want an error naming the type", want, err)
		}
	}
}

func TestCodecKVRoundTrip(t *testing.T) {
	kv := KV{Key: "some/key", Value: 1.5}
	buf, err := EncodeKV(nil, kv)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeKV(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v (n=%d)", err, n)
	}
	if got.Key != kv.Key || !reflect.DeepEqual(got.Value, kv.Value) {
		t.Fatalf("round trip %v -> %v", kv, got)
	}
}

func TestCodecTruncatedInput(t *testing.T) {
	buf, _ := EncodeValue(nil, "a reasonably long string value")
	for cut := 1; cut < len(buf); cut += 3 {
		if _, _, err := DecodeValue(buf[:cut]); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded", cut, len(buf))
		}
	}
	if _, _, err := DecodeValue(nil); err == nil {
		t.Fatal("decoding empty buffer succeeded")
	}
}

// counted is a tag, a uvarint count or length, and whatever follows it.
func counted(tag typeTag, n uint64, tail ...byte) []byte {
	return append(binary.AppendUvarint([]byte{byte(tag)}, n), tail...)
}

// overlong is a tag and a varint of eleven continuation bytes: past 64 bits.
func overlong(tag typeTag) []byte {
	return append([]byte{byte(tag)}, bytes.Repeat([]byte{0x80}, 11)...)
}

// hostileCounts are encodings whose length is not backed by the bytes
// that follow: a string of 2^64-1 bytes, a varint of eleven continuation
// bytes, a length one past the bytes that remain.
var hostileCounts = [][]byte{
	counted(tagString, math.MaxUint64),
	overlong(tagString),
	overlong(tagInt64),
	counted(tagString, 5, 'a', 'b', 'c', 'd'),
}

// retiredTags are the tag bytes of the types the codec no longer carries.
var retiredTags = []byte{0, 1, 5, 6, 7, 8, 9, 10, 11}

// decodeMeasured is DecodeValue and the bytes the call allocated.
func decodeMeasured(b []byte) (v any, n int, err error, alloc uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v, n, err = DecodeValue(b)
	runtime.ReadMemStats(&m1)
	return v, n, err, m1.TotalAlloc - m0.TotalAlloc
}

// A count the input cannot back is a typed error before it is an
// allocation.
func TestCodecHostileCounts(t *testing.T) {
	for _, b := range hostileCounts {
		_, _, err, alloc := decodeMeasured(b)
		if typed := errors.Is(err, ErrTruncated) || errors.Is(err, ErrVarintOverflow); !typed || alloc > 1<<20 {
			t.Errorf("DecodeValue(% x) = %v after allocating %d bytes, want ErrTruncated or ErrVarintOverflow and none to speak of", b, err, alloc)
		}
	}
}

// A retired tag is ErrUnknownTag, and saying so allocates nothing.
func TestCodecRetiredTags(t *testing.T) {
	for _, tag := range retiredTags {
		b := []byte{tag, 1, 'x'}
		if _, _, err := DecodeValue(b); !errors.Is(err, ErrUnknownTag) {
			t.Errorf("DecodeValue(% x) = %v, want ErrUnknownTag", b, err)
		}
		if allocs := testing.AllocsPerRun(10, func() { DecodeValue(b) }); allocs != 0 {
			t.Errorf("DecodeValue(% x) allocates %v times", b, allocs)
		}
	}
}

// TestEncodedSizes pins what a length and a small int cost, so a slide
// back to fixed-width words fails here rather than in a benchmark.
func TestEncodedSizes(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{
		{int64(1), 2}, {int64(-1), 2}, {int64(63), 2}, {int64(-64), 2}, {int64(64), 3},
		{int64(math.MinInt64), 11}, {"0123456789abcdef", 18}, {"", 2}, {2.5, 9},
	} {
		if b, err := EncodeValue(nil, c.v); err != nil || len(b) != c.want {
			t.Errorf("%#v encodes to %d bytes (%v), want %d", c.v, len(b), err, c.want)
		}
	}
	// The TeraSort row: 37 bytes under fixed-width lengths, 26 of payload.
	row, err := EncodeKV(nil, KV{Key: "0123456789", Value: "00000000-payload"})
	if err != nil || len(row) != 29 {
		t.Errorf("the TeraSort row encodes to %d bytes (%v), want 29", len(row), err)
	}
}

// FuzzDecodeValue holds DecodeValue to what a decoder of bytes read back
// from disk owes its caller: whatever the input, it does not panic and it
// allocates no more than a small multiple of the input; and what it accepts
// encodes again to something that decodes to the same value.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range append(codecValues, math.NaN()) {
		b, err := EncodeValue(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, b := range hostileCounts {
		f.Add(b)
	}
	for _, tag := range retiredTags {
		f.Add([]byte{tag, 1, 'x'})
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err, alloc := decodeMeasured(b)
		if limit := uint64(64*len(b) + 1<<20); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(b), alloc, limit)
		}
		if err != nil {
			return
		}
		if n < 1 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		enc, err := EncodeValue(nil, v)
		if err != nil {
			t.Fatalf("decoded %#v does not encode: %v", v, err)
		}
		v2, n2, err := DecodeValue(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("re-decode of %#v: %v (%d of %d bytes)", v, err, n2, len(enc))
		}
		// NaN is not DeepEqual to itself, so either the values or their
		// encodings must agree.
		if enc2, _ := EncodeValue(nil, v2); !reflect.DeepEqual(v, v2) && !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip %#v -> %#v", v, v2)
		}
	})
}

// Property: KV pairs with string keys and mixed scalar values always
// round-trip exactly, and concatenated encodings decode in sequence.
func TestCodecStreamProperty(t *testing.T) {
	f := func(keys []string, ints []int64, strs []string) bool {
		var kvs []KV
		for i, k := range keys {
			var v any
			switch i % 3 {
			case 0:
				if len(ints) > 0 {
					v = ints[i%len(ints)]
				} else {
					v = int64(i)
				}
			case 1:
				if len(strs) > 0 {
					v = strs[i%len(strs)]
				} else {
					v = "s"
				}
			default:
				v = float64(i) * 1.5
			}
			kvs = append(kvs, KV{Key: k, Value: v})
		}
		var buf []byte
		var err error
		for _, kv := range kvs {
			buf, err = EncodeKV(buf, kv)
			if err != nil {
				return false
			}
		}
		p := 0
		for _, want := range kvs {
			got, n, err := DecodeKV(buf[p:])
			if err != nil {
				return false
			}
			p += n
			if got.Key != want.Key || !reflect.DeepEqual(got.Value, want.Value) {
				return false
			}
		}
		return p == len(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestValueSize(t *testing.T) {
	cases := []struct {
		v   any
		min int64
	}{
		{nil, 0}, {int64(1), 8}, {"hello", 5}, {[]byte{1, 2, 3}, 3},
		{[]float64{1, 2}, 16}, {[]string{"ab", "cd"}, 4},
	}
	for _, c := range cases {
		if got := ValueSize(c.v); got < c.min {
			t.Errorf("ValueSize(%#v) = %d, want >= %d", c.v, got, c.min)
		}
	}
	// Sizer is honored.
	if got := ValueSize(sizedValue(123)); got != 123 {
		t.Errorf("Sizer value size = %d", got)
	}
	// Unknown types get a flat conservative charge.
	if got := ValueSize(struct{ X int }{}); got <= 0 {
		t.Errorf("unknown type size = %d", got)
	}
}

type sizedValue int64

func (s sizedValue) SizeBytes() int64 { return int64(s) }

func TestHashPartitionProperties(t *testing.T) {
	f := func(key string, n uint8) bool {
		nodes := int(n)%16 + 1
		p := HashPartition(key, nodes)
		if p < 0 || p >= nodes {
			return false
		}
		return p == HashPartition(key, nodes) // pure function of key
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// TestStripesIndependentOfPartition: the keys one node owns must spread
// over that node's lock stripes. With the raw hash on both sides they
// occupied only stripes/nodes of them (every owned key is ≡ node mod nodes).
func TestStripesIndependentOfPartition(t *testing.T) {
	const stripes, vocabulary = 64, 4000
	for _, nodes := range []int{2, 4, 8, 16} {
		used := map[int]bool{}
		for i := 0; i < vocabulary; i++ {
			if w := fmt.Sprintf("w%05d", i); HashPartition(w, nodes) == 0 {
				used[stripeOf(w, stripes)] = true
			}
		}
		if len(used) < 56 {
			t.Errorf("%d nodes: node 0's keys occupy %d of %d stripes, want >= 56", nodes, len(used), stripes)
		}
	}
}

func TestHashPartitionCoversAllNodes(t *testing.T) {
	const nodes = 8
	hit := make([]bool, nodes)
	for i := 0; i < 10000; i++ {
		hit[HashPartition(string(rune('a'+i%26))+string(rune(i)), nodes)] = true
	}
	for n, ok := range hit {
		if !ok {
			t.Errorf("partition %d never hit", n)
		}
	}
}
