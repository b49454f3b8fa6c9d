package core

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
)

// The codec turns KV values into bytes for spill runs, map output and the
// wire form of a bin: a type tag, then a compact encoding per type (laid
// out above EncodeValue). The type set is closed and RegisterValue is the
// one way to extend it.

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
	tagRegistered
	tagIntSlice
	tagMapStringInt64
)

// registered maps a RegisterValue'd type to its name (reflect.Type ->
// string) and back (string -> reflect.Type).
var registered sync.Map

// RegisterValue makes v's type a value the codec carries: it is encoded as
// the registered type name and the bytes of its MarshalBinary, and decoded
// by UnmarshalBinary on a pointer to a fresh value. A type missing either
// method panics here rather than at the first spill. Safe to call from
// init functions of app packages and safe for concurrent use.
func RegisterValue(v any) {
	t := reflect.TypeOf(v)
	_, marshals := v.(encoding.BinaryMarshaler)
	if _, unmarshals := reflect.New(t).Interface().(encoding.BinaryUnmarshaler); !marshals || !unmarshals {
		panic(fmt.Sprintf("core: RegisterValue(%T): need MarshalBinary on the value and UnmarshalBinary on its pointer", v))
	}
	name := t.PkgPath() + "." + t.Name()
	if prev, dup := registered.LoadOrStore(name, t); dup && prev != t {
		panic(fmt.Sprintf("core: RegisterValue(%T): name %s is taken by another type", v, name))
	}
	registered.Store(t, name)
}

// The layout, byte by byte. A value is one tag byte and then:
//
//	nil                nothing
//	bool               one byte, 0 or 1
//	int, int64         zig-zag varint (1 byte for -64..63, 10 at most)
//	float64            8 bytes, little-endian IEEE 754 bits
//	string, []byte     uvarint length, the bytes
//	[]float64          uvarint count, 8 bytes per element
//	[]int64, []int     uvarint count, 8 bytes per element (two's complement)
//	[]string           uvarint count, then per element uvarint length, bytes
//	map[string]int64   uvarint count, then per entry in key order: uvarint
//	                   key length, key bytes, 8-byte value
//	registered         uvarint length and bytes of the type name, then of
//	                   the MarshalBinary body
//
// Lengths and counts are uvarints because almost all of them are under 128
// and a fixed word spent 8 bytes on each; a scalar int is zig-zag because
// the counts the benchmarks shuffle are small and either sign. Floats and
// the elements of numeric slices stay fixed words: float bits do not
// shrink as varints, and a fixed element width is what lets a count be
// checked against the bytes that remain before it sizes a slice. EncodeKV
// puts a uvarint key length and the key in front of the value. There is one
// layout and no version byte: run files, sections and frames never outlive
// the process that wrote them.

// Decode errors a caller can test for. A length or count the remaining
// bytes cannot back is ErrTruncated, whether the input was cut short or
// the header is corrupt; a varint past 64 bits is ErrVarintOverflow.
var (
	ErrTruncated      = errors.New("core: truncated value")
	ErrVarintOverflow = errors.New("core: varint overflows 64 bits")
)

func appendWord(dst []byte, x uint64) []byte { return binary.LittleEndian.AppendUint64(dst, x) }

func appendLen(dst []byte, n int) []byte { return binary.AppendUvarint(dst, uint64(n)) }

// EncodeValue appends the encoded form of v to dst and returns the result.
// It carries nil, bool, int (read back as int64), int64, float64, string,
// []byte, []float64, []int64, []int, []string, map[string]int64 and the
// types given to RegisterValue; any other type is an error naming it. Equal
// values encode to equal bytes: a map's entries are written in key order.
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
		dst = binary.AppendVarint(append(dst, byte(tagInt64)), int64(x))
	case int64:
		dst = binary.AppendVarint(append(dst, byte(tagInt64)), x)
	case float64:
		dst = appendWord(append(dst, byte(tagFloat64)), math.Float64bits(x))
	case string:
		dst = appendLen(append(dst, byte(tagString)), len(x))
		dst = append(dst, x...)
	case []byte:
		dst = appendLen(append(dst, byte(tagBytes)), len(x))
		dst = append(dst, x...)
	case []float64:
		dst = appendLen(append(dst, byte(tagFloat64Slice)), len(x))
		for _, f := range x {
			dst = appendWord(dst, math.Float64bits(f))
		}
	case []int64:
		dst = appendLen(append(dst, byte(tagInt64Slice)), len(x))
		for _, i := range x {
			dst = appendWord(dst, uint64(i))
		}
	case []string:
		dst = appendLen(append(dst, byte(tagStringSlice)), len(x))
		for _, s := range x {
			dst = append(appendLen(dst, len(s)), s...)
		}
	case []int:
		dst = appendLen(append(dst, byte(tagIntSlice)), len(x))
		for _, i := range x {
			dst = appendWord(dst, uint64(int64(i)))
		}
	case map[string]int64:
		dst = appendLen(append(dst, byte(tagMapStringInt64)), len(x))
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			dst = append(appendLen(dst, len(k)), k...)
			dst = appendWord(dst, uint64(x[k]))
		}
	default:
		name, ok := registered.Load(reflect.TypeOf(v))
		if !ok {
			return nil, fmt.Errorf("core: cannot encode a %T: not a codec type and not registered with RegisterValue", v)
		}
		body, err := v.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: marshal %T: %w", v, err)
		}
		dst = appendLen(append(dst, byte(tagRegistered)), len(name.(string)))
		dst = append(dst, name.(string)...)
		dst = append(appendLen(dst, len(body)), body...)
	}
	return dst, nil
}

// reader walks an encoded buffer. Every method checks what it is about to
// take against the bytes that remain, so nothing read from the input sizes
// an allocation the input does not back.
type reader struct {
	b []byte
	p int
}

func (r *reader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.b[r.p:])
	if n == 0 {
		return 0, ErrTruncated
	}
	if n < 0 {
		return 0, ErrVarintOverflow
	}
	r.p += n
	return x, nil
}

// varint undoes the zig-zag binary.AppendVarint applies.
func (r *reader) varint() (int64, error) {
	x, err := r.uvarint()
	return int64(x>>1) ^ -int64(x&1), err
}

func (r *reader) word() (uint64, error) {
	if len(r.b)-r.p < 8 {
		return 0, ErrTruncated
	}
	x := binary.LittleEndian.Uint64(r.b[r.p:])
	r.p += 8
	return x, nil
}

// count reads an element count and requires the bytes that remain to hold
// that many elements of at least width bytes each.
func (r *reader) count(width int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)-r.p)/uint64(width) {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// bytes reads a length and returns that many bytes of the buffer itself.
func (r *reader) bytes() ([]byte, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	r.p += n
	return r.b[r.p-n : r.p], nil
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (any, int, error) {
	if len(b) == 0 {
		return nil, 0, fmt.Errorf("core: decode empty buffer: %w", ErrTruncated)
	}
	r := reader{b: b, p: 1}
	v, err := r.value(typeTag(b[0]))
	if err != nil {
		return nil, 0, err
	}
	return v, r.p, nil
}

func (r *reader) value(tag typeTag) (any, error) {
	switch tag {
	case tagNil:
		return nil, nil
	case tagBool:
		if r.p == len(r.b) {
			return nil, ErrTruncated
		}
		r.p++
		return r.b[r.p-1] != 0, nil
	case tagInt64:
		return r.varint()
	case tagFloat64:
		x, err := r.word()
		return math.Float64frombits(x), err
	case tagString:
		s, err := r.bytes()
		return string(s), err
	case tagBytes:
		s, err := r.bytes()
		return append([]byte(nil), s...), err
	case tagFloat64Slice:
		n, err := r.count(8)
		if err != nil {
			return nil, err
		}
		v := make([]float64, n)
		for i := range v {
			x, _ := r.word() // count(8) checked the bytes are there
			v[i] = math.Float64frombits(x)
		}
		return v, nil
	case tagInt64Slice:
		n, err := r.count(8)
		if err != nil {
			return nil, err
		}
		v := make([]int64, n)
		for i := range v {
			x, _ := r.word()
			v[i] = int64(x)
		}
		return v, nil
	case tagIntSlice:
		n, err := r.count(8)
		if err != nil {
			return nil, err
		}
		v := make([]int, n)
		for i := range v {
			x, _ := r.word()
			v[i] = int(int64(x))
		}
		return v, nil
	case tagStringSlice:
		n, err := r.count(1) // an element is at least its length byte
		if err != nil {
			return nil, err
		}
		v := make([]string, n)
		for i := range v {
			s, err := r.bytes()
			if err != nil {
				return nil, err
			}
			v[i] = string(s)
		}
		return v, nil
	case tagMapStringInt64:
		n, err := r.count(9) // an entry is at least a key length byte and a value
		if err != nil {
			return nil, err
		}
		v := make(map[string]int64, n)
		for i := 0; i < n; i++ {
			k, err := r.bytes()
			if err != nil {
				return nil, err
			}
			x, err := r.word()
			if err != nil {
				return nil, err
			}
			v[string(k)] = int64(x)
		}
		return v, nil
	case tagRegistered:
		name, err := r.bytes()
		if err != nil {
			return nil, err
		}
		body, err := r.bytes()
		if err != nil {
			return nil, err
		}
		t, ok := registered.Load(string(name))
		if !ok {
			return nil, fmt.Errorf("core: value of unregistered type %q", name)
		}
		v := reflect.New(t.(reflect.Type))
		if err := v.Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(body); err != nil {
			return nil, fmt.Errorf("core: unmarshal %s: %w", name, err)
		}
		return v.Elem().Interface(), nil
	default:
		return nil, fmt.Errorf("core: unknown value tag %d", tag)
	}
}

// EncodeKV encodes a full pair (key then value) into dst.
func EncodeKV(dst []byte, kv KV) ([]byte, error) {
	dst = append(appendLen(dst, len(kv.Key)), kv.Key...)
	return EncodeValue(dst, kv.Value)
}

// DecodeKV decodes one pair from b, returning the pair and bytes consumed.
func DecodeKV(b []byte) (KV, int, error) {
	r := reader{b: b}
	key, err := r.bytes()
	if err != nil {
		return KV{}, 0, err
	}
	v, n, err := DecodeValue(b[r.p:])
	if err != nil {
		return KV{}, 0, err
	}
	return KV{Key: string(key), Value: v}, r.p + n, nil
}
