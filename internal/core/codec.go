package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sync"
)

// The codec turns KV values into bytes for reduce-side spills and for the
// TCP transport. Common scalar and slice types use a compact type-tagged
// encoding; everything else falls back to gob (types must be registered
// with RegisterValue).

type typeTag byte

const (
	tagNil typeTag = iota
	tagBool
	tagInt64
	tagFloat64
	tagString
	tagBytes
	tagFloat64Slice
	tagInt64Slice
	tagStringSlice
	tagGob
	tagIntSlice
	tagMapStringInt64
)

// codecSession holds the per-call scratch state of one gob fallback
// encode or decode. gob streams are stateful (type descriptors are sent
// once per stream), so each value gets a fresh Encoder/Decoder to stay
// self-contained — but the buffers they run over are pooled, and nothing
// is shared, so concurrent workers encode and decode fully independently.
// (An earlier revision funnelled every gob operation through one
// process-global mutex, serializing the spill and TCP paths.)
type codecSession struct {
	buf bytes.Buffer
	rd  bytes.Reader
}

var codecPool = sync.Pool{New: func() any { return new(codecSession) }}

// RegisterValue registers a custom value type for the gob fallback
// encoding. Safe to call from init functions of app packages and safe for
// concurrent use (gob's registry is internally synchronized).
func RegisterValue(v any) {
	gob.Register(v)
}

// EncodeValue appends the encoded form of v to dst and returns the result.
func EncodeValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		dst = append(dst, byte(tagNil))
	case bool:
		dst = append(dst, byte(tagBool))
		if x {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case int:
		dst = append(dst, byte(tagInt64))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(x)))
	case int64:
		dst = append(dst, byte(tagInt64))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	case float64:
		dst = append(dst, byte(tagFloat64))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	case string:
		dst = append(dst, byte(tagString))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(x)))
		dst = append(dst, x...)
	case []byte:
		dst = append(dst, byte(tagBytes))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(x)))
		dst = append(dst, x...)
	case []float64:
		dst = append(dst, byte(tagFloat64Slice))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(x)))
		for _, f := range x {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	case []int64:
		dst = append(dst, byte(tagInt64Slice))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(x)))
		for _, i := range x {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(i))
		}
	case []string:
		dst = append(dst, byte(tagStringSlice))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(x)))
		for _, s := range x {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	case []int:
		dst = append(dst, byte(tagIntSlice))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(x)))
		for _, i := range x {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(i)))
		}
	case map[string]int64:
		dst = append(dst, byte(tagMapStringInt64))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(x)))
		for k, i := range x {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(len(k)))
			dst = append(dst, k...)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(i))
		}
	default:
		// gob needs an addressable interface value; taking v's own address
		// would move the parameter to the heap on every call, fast paths
		// included, so only this branch pays for a copy.
		boxed := v
		sess := codecPool.Get().(*codecSession)
		sess.buf.Reset()
		err := gob.NewEncoder(&sess.buf).Encode(&boxed)
		if err != nil {
			codecPool.Put(sess)
			return nil, fmt.Errorf("core: gob-encode %T: %w", v, err)
		}
		dst = append(dst, byte(tagGob))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(sess.buf.Len()))
		dst = append(dst, sess.buf.Bytes()...)
		codecPool.Put(sess)
	}
	return dst, nil
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (any, int, error) {
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("core: decode empty buffer")
	}
	tag := typeTag(b[0])
	p := 1
	getU64 := func() (uint64, error) {
		if len(b) < p+8 {
			return 0, fmt.Errorf("core: truncated value")
		}
		x := binary.LittleEndian.Uint64(b[p:])
		p += 8
		return x, nil
	}
	// getCount reads an element count and requires the bytes that remain
	// to hold that many elements of at least width bytes, so a corrupt
	// header cannot size an allocation.
	getCount := func(width int) (int, error) {
		n, err := getU64()
		if err != nil {
			return 0, err
		}
		if n > uint64(len(b)-p)/uint64(width) {
			return 0, fmt.Errorf("core: truncated value")
		}
		return int(n), nil
	}
	switch tag {
	case tagNil:
		return nil, p, nil
	case tagBool:
		if len(b) < p+1 {
			return nil, 0, fmt.Errorf("core: truncated bool")
		}
		v := b[p] != 0
		return v, p + 1, nil
	case tagInt64:
		x, err := getU64()
		if err != nil {
			return nil, 0, err
		}
		return int64(x), p, nil
	case tagFloat64:
		x, err := getU64()
		if err != nil {
			return nil, 0, err
		}
		return math.Float64frombits(x), p, nil
	case tagString:
		n, err := getU64()
		if err != nil {
			return nil, 0, err
		}
		if uint64(len(b)-p) < n {
			return nil, 0, fmt.Errorf("core: truncated string")
		}
		v := string(b[p : p+int(n)])
		return v, p + int(n), nil
	case tagBytes:
		n, err := getU64()
		if err != nil {
			return nil, 0, err
		}
		if uint64(len(b)-p) < n {
			return nil, 0, fmt.Errorf("core: truncated bytes")
		}
		v := append([]byte(nil), b[p:p+int(n)]...)
		return v, p + int(n), nil
	case tagFloat64Slice:
		n, err := getCount(8)
		if err != nil {
			return nil, 0, err
		}
		v := make([]float64, n)
		for i := range v {
			x, err := getU64()
			if err != nil {
				return nil, 0, err
			}
			v[i] = math.Float64frombits(x)
		}
		return v, p, nil
	case tagInt64Slice:
		n, err := getCount(8)
		if err != nil {
			return nil, 0, err
		}
		v := make([]int64, n)
		for i := range v {
			x, err := getU64()
			if err != nil {
				return nil, 0, err
			}
			v[i] = int64(x)
		}
		return v, p, nil
	case tagStringSlice:
		n, err := getCount(8)
		if err != nil {
			return nil, 0, err
		}
		v := make([]string, n)
		for i := range v {
			sl, err := getU64()
			if err != nil {
				return nil, 0, err
			}
			if uint64(len(b)-p) < sl {
				return nil, 0, fmt.Errorf("core: truncated string slice")
			}
			v[i] = string(b[p : p+int(sl)])
			p += int(sl)
		}
		return v, p, nil
	case tagIntSlice:
		n, err := getCount(8)
		if err != nil {
			return nil, 0, err
		}
		v := make([]int, n)
		for i := range v {
			x, err := getU64()
			if err != nil {
				return nil, 0, err
			}
			v[i] = int(int64(x))
		}
		return v, p, nil
	case tagMapStringInt64:
		n, err := getCount(16) // a key length and a value
		if err != nil {
			return nil, 0, err
		}
		v := make(map[string]int64, n)
		for i := 0; i < n; i++ {
			kl, err := getU64()
			if err != nil {
				return nil, 0, err
			}
			if uint64(len(b)-p) < kl {
				return nil, 0, fmt.Errorf("core: truncated map key")
			}
			k := string(b[p : p+int(kl)])
			p += int(kl)
			x, err := getU64()
			if err != nil {
				return nil, 0, err
			}
			v[k] = int64(x)
		}
		return v, p, nil
	case tagGob:
		n, err := getU64()
		if err != nil {
			return nil, 0, err
		}
		if uint64(len(b)-p) < n {
			return nil, 0, fmt.Errorf("core: truncated gob value")
		}
		var v any
		sess := codecPool.Get().(*codecSession)
		sess.rd.Reset(b[p : p+int(n)])
		err = gob.NewDecoder(&sess.rd).Decode(&v)
		codecPool.Put(sess)
		if err != nil {
			return nil, 0, fmt.Errorf("core: gob-decode: %w", err)
		}
		return v, p + int(n), nil
	default:
		return nil, 0, fmt.Errorf("core: unknown value tag %d", tag)
	}
}

// EncodeKV encodes a full pair (key then value) into dst.
func EncodeKV(dst []byte, kv KV) ([]byte, error) {
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], uint64(len(kv.Key)))
	dst = append(dst, scratch[:]...)
	dst = append(dst, kv.Key...)
	return EncodeValue(dst, kv.Value)
}

// DecodeKV decodes one pair from b, returning the pair and bytes consumed.
func DecodeKV(b []byte) (KV, int, error) {
	if len(b) < 8 {
		return KV{}, 0, fmt.Errorf("core: truncated kv")
	}
	klen := binary.LittleEndian.Uint64(b)
	p := 8
	if uint64(len(b)-p) < klen {
		return KV{}, 0, fmt.Errorf("core: truncated key")
	}
	key := string(b[p : p+int(klen)])
	p += int(klen)
	v, n, err := DecodeValue(b[p:])
	if err != nil {
		return KV{}, 0, err
	}
	return KV{Key: key, Value: v}, p + n, nil
}
