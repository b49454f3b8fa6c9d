package core

import "fmt"

// Wire forms of the four payloads the runtime sends, for the place a
// message has to become bytes (a TCP connection). Each is built from the
// value codec run files use: a header of int64s through EncodeValue and,
// for a bin, its pairs through EncodeKV. transport hands the bytes back as
// the payload and handle decodes them by kind.

// decodeInts reads a header of exactly n int64s from the front of p and
// returns it with the bytes after it.
func decodeInts(p []byte, n int) ([]int64, []byte, error) {
	v, used, err := DecodeValue(p)
	if err != nil {
		return nil, nil, err
	}
	ints, ok := v.([]int64)
	if !ok || len(ints) != n {
		return nil, nil, fmt.Errorf("core: payload header is not the %d int64s expected (a %T)", n, v)
	}
	return ints, p[used:], nil
}

// decodeMsg reads a payload that is a header of n int64s and nothing else.
func decodeMsg(p []byte, n int) ([]int64, error) {
	ints, rest, err := decodeInts(p, n)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("core: %d bytes after payload", len(rest))
	}
	return ints, err
}

// AppendBinary appends the bin's wire form: its stamp, then its pairs.
// Last rides in the low bit of the From word, so the header stays five
// words.
func (b *Bin) AppendBinary(dst []byte) ([]byte, error) {
	from := int64(b.From) << 1
	if b.Last {
		from |= 1
	}
	dst, err := EncodeValue(dst, []int64{b.Job, int64(b.Edge), int64(b.Flowlet), from, b.Bytes})
	for i := 0; i < len(b.KVs) && err == nil; i++ {
		dst, err = EncodeKV(dst, b.KVs[i])
	}
	return dst, err
}

// decode rebuilds a bin that crossed a byte boundary in a slab drawn from
// l — the receiving node's list, which the consumer returns it to. Pairs
// run to the end of p, so no count read from p sizes anything, and a bin of
// more pairs than a slab holds is refused rather than grown. A refused
// input leaves the slab back on the list.
func (l *binList) decode(p []byte) (*Bin, error) {
	hdr, p, err := decodeInts(p, 5)
	if err != nil {
		return nil, err
	}
	b := l.get()
	b.Job, b.Edge, b.Flowlet, b.Bytes = hdr[0], int(hdr[1]), int(hdr[2]), hdr[4]
	b.From, b.Last = int(hdr[3]>>1), hdr[3]&1 != 0
	for len(p) > 0 {
		kv, n, err := DecodeKV(p)
		if err == nil && len(b.KVs) == cap(b.KVs) {
			err = fmt.Errorf("core: bin holds more than this node's %d pairs per bin", l.size)
		}
		if err != nil {
			b.release()
			return nil, err
		}
		b.KVs = append(b.KVs, kv)
		p = p[n:]
	}
	return b, nil
}

func (m ackMsg) AppendBinary(dst []byte) ([]byte, error) {
	return EncodeValue(dst, []int64{m.Job, int64(m.Edge)})
}

func decodeAck(p []byte) (ackMsg, error) {
	v, err := decodeMsg(p, 2)
	if err != nil {
		return ackMsg{}, err
	}
	return ackMsg{Job: v[0], Edge: int(v[1])}, nil
}

func (m completeMsg) AppendBinary(dst []byte) ([]byte, error) {
	return EncodeValue(dst, []int64{m.Job, int64(m.Flowlet), int64(m.Node)})
}

func decodeComplete(p []byte) (completeMsg, error) {
	v, err := decodeMsg(p, 3)
	if err != nil {
		return completeMsg{}, err
	}
	return completeMsg{Job: v[0], Flowlet: int(v[1]), Node: int(v[2])}, nil
}

func (m failMsg) AppendBinary(dst []byte) ([]byte, error) {
	var canceled int64
	if m.Canceled {
		canceled = 1
	}
	dst, _ = EncodeValue(dst, []int64{m.Job, canceled})
	return EncodeValue(dst, []string{m.Err, m.FaultOp, m.FaultSite})
}

func decodeFail(p []byte) (failMsg, error) {
	ints, p, err := decodeInts(p, 2)
	if err != nil {
		return failMsg{}, err
	}
	v, used, err := DecodeValue(p)
	if err != nil {
		return failMsg{}, err
	}
	s, ok := v.([]string)
	if !ok || len(s) != 3 || used != len(p) {
		return failMsg{}, fmt.Errorf("core: fail payload carries %T, want 3 strings", v)
	}
	return failMsg{Job: ints[0], Canceled: ints[1] != 0, Err: s[0], FaultOp: s[1], FaultSite: s[2]}, nil
}
