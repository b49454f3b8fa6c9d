package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The codec turns KV values into bytes for spill runs and map output: a
// type tag, then a compact encoding per type (laid out above EncodeValue).
// It carries the three types that reach it: the baseline's map outputs are
// int64 counts and string records, and a HAMR reduce flowlet that spills
// adds PageRank's float64 contributions.

type typeTag byte

// The tag bytes are fixed: the pinned hashes of the baseline's map outputs
// cover them. 0, 1 and 5–11 are retired and decode to ErrUnknownTag.
const (
	tagInt64 typeTag = 2 + iota
	tagFloat64
	tagString
)

// The layout, byte by byte. A value is one tag byte and then:
//
//	int64     zig-zag varint (1 byte for -64..63, 10 at most)
//	float64   8 bytes, little-endian IEEE 754 bits
//	string    uvarint length, the bytes
//
// A string's length is a uvarint because almost all are under 128 and a
// fixed word spent 8 bytes on each; an int is zig-zag because the counts
// the benchmarks shuffle are small and either sign. Float bits do not
// shrink as varints and stay a fixed word. EncodeKV puts a uvarint key
// length and the key in front of the value. There is one layout and no
// version byte: run files and sections never outlive the process that
// wrote them.

// Decode errors a caller can test for. A length the remaining bytes cannot
// back is ErrTruncated, whether the input was cut short or the header is
// corrupt; a varint past 64 bits is ErrVarintOverflow; a tag byte of no
// type the codec carries is ErrUnknownTag.
var (
	ErrTruncated      = errors.New("core: truncated value")
	ErrVarintOverflow = errors.New("core: varint overflows 64 bits")
	ErrUnknownTag     = errors.New("core: unknown value tag")
)

func appendLen(dst []byte, n int) []byte { return binary.AppendUvarint(dst, uint64(n)) }

// EncodeValue appends the encoded form of v to dst and returns the result.
// It carries int64, float64 and string; any other type, int included, is an
// error naming it.
func EncodeValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case int64:
		dst = binary.AppendVarint(append(dst, byte(tagInt64)), x)
	case float64:
		dst = binary.LittleEndian.AppendUint64(append(dst, byte(tagFloat64)), math.Float64bits(x))
	case string:
		dst = appendLen(append(dst, byte(tagString)), len(x))
		dst = append(dst, x...)
	default:
		return nil, fmt.Errorf("core: cannot encode a %T: the codec carries int64, float64 and string", v)
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

// bytes reads a length and returns that many bytes of the buffer itself.
func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.p) {
		return nil, ErrTruncated
	}
	r.p += int(n)
	return r.b[r.p-int(n) : r.p], nil
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
	case tagInt64:
		return r.varint()
	case tagFloat64:
		x, err := r.word()
		return math.Float64frombits(x), err
	case tagString:
		s, err := r.bytes()
		return string(s), err
	default:
		return nil, ErrUnknownTag
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
