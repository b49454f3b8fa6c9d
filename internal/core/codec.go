package core

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// The codec turns KV values into bytes for spill runs, map output and the
// wire form of a bin: a type tag, then a compact encoding per type. The
// type set is closed (see EncodeValue) and RegisterValue is the one way to
// extend it.

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

// EncodeValue appends the encoded form of v to dst and returns the result.
// It carries nil, bool, int (read back as int64), int64, float64, string,
// []byte, []float64, []int64, []int, []string, map[string]int64 and the
// types given to RegisterValue; any other type is an error naming it.
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
		name, ok := registered.Load(reflect.TypeOf(v))
		if !ok {
			return nil, fmt.Errorf("core: cannot encode a %T: not a codec type and not registered with RegisterValue", v)
		}
		body, err := v.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: marshal %T: %w", v, err)
		}
		dst = append(dst, byte(tagRegistered))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(name.(string))))
		dst = append(dst, name.(string)...)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(body)))
		dst = append(dst, body...)
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
	case tagRegistered:
		var field [2][]byte // type name, marshaled body
		for i := range field {
			n, err := getU64()
			if err != nil {
				return nil, 0, err
			}
			if uint64(len(b)-p) < n {
				return nil, 0, fmt.Errorf("core: truncated registered value")
			}
			field[i] = b[p : p+int(n)]
			p += int(n)
		}
		t, ok := registered.Load(string(field[0]))
		if !ok {
			return nil, 0, fmt.Errorf("core: value of unregistered type %q", field[0])
		}
		v := reflect.New(t.(reflect.Type))
		if err := v.Interface().(encoding.BinaryUnmarshaler).UnmarshalBinary(field[1]); err != nil {
			return nil, 0, fmt.Errorf("core: unmarshal %s: %w", field[0], err)
		}
		return v.Elem().Interface(), p, nil
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
