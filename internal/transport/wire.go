package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The wire form. Whatever crosses a byte boundary — a TCP connection — is
// a Message turned into bytes by appendMessage and back by readMessage;
// nothing else knows the layout, all little-endian:
//
//	int64   From, To, Size
//	uint32  len(Kind)
//	uint32  0 for a nil payload, else 1 + len(payload)
//	Kind, then the payload
//
// A nil or []byte payload passes as it is and anything else encodes itself
// through AppendBinary. The far side delivers the payload as []byte, valid
// until the handler returns, and the handler for the kind decodes it, so
// this package keeps no decoder registry. Every message has exactly one
// encoding, which FuzzReadMessage holds readMessage to.
const headerLen = 3*8 + 2*4 // the two lengths are its last eight bytes

// binaryAppender has the method set of encoding.BinaryAppender, which the
// go line in go.mod predates.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// appendMessage appends msg's wire form to dst. On error dst comes back at
// its original length.
func appendMessage(dst []byte, msg Message) ([]byte, error) {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(msg.From))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(msg.To))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(msg.Size))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(msg.Kind)))
	dst = append(dst, 0, 0, 0, 0) // nil payload, or patched below once its length is known
	dst = append(dst, msg.Kind...)
	body := len(dst)
	switch p := msg.Payload.(type) {
	case nil:
		return dst, nil
	case []byte:
		dst = append(dst, p...)
	case binaryAppender:
		var err error
		if dst, err = p.AppendBinary(dst); err != nil {
			return dst[:start], fmt.Errorf("transport: encode %s payload %T: %w", msg.Kind, p, err)
		}
	default:
		return dst[:start], fmt.Errorf("transport: %s payload %T has no AppendBinary and cannot cross a byte boundary", msg.Kind, p)
	}
	n := len(dst) - body
	if n >= math.MaxUint32 {
		return dst[:start], fmt.Errorf("transport: %s payload of %d bytes is too large to frame", msg.Kind, n)
	}
	binary.LittleEndian.PutUint32(dst[start+headerLen-4:], uint32(n)+1)
	return dst, nil
}

var errBadMessage = errors.New("transport: malformed message")

// readMessage decodes the message at the front of b and reports how many
// bytes it took. The payload aliases b, and no length read from b sizes an
// allocation: each is checked against the bytes that remain.
func readMessage(b []byte) (Message, int, error) {
	if len(b) < headerLen {
		return Message{}, 0, errBadMessage
	}
	msg := Message{
		From: NodeID(binary.LittleEndian.Uint64(b)),
		To:   NodeID(binary.LittleEndian.Uint64(b[8:])),
		Size: int64(binary.LittleEndian.Uint64(b[16:])),
	}
	klen := uint64(binary.LittleEndian.Uint32(b[headerLen-8:]))
	plen := uint64(binary.LittleEndian.Uint32(b[headerLen-4:]))
	rest := uint64(len(b) - headerLen)
	if klen > rest || plen > 0 && plen-1 > rest-klen {
		return Message{}, 0, errBadMessage
	}
	p := headerLen + int(klen)
	msg.Kind = string(b[headerLen:p])
	if plen > 0 {
		end := p + int(plen-1)
		msg.Payload, p = b[p:end:end], end
	}
	return msg, p, nil
}

// AppendBinary lets a KindBatch frame cross a TCP connection: a batch on
// the wire is its messages one after the other.
func (bp *BatchPayload) AppendBinary(b []byte) ([]byte, error) {
	var err error
	for i := range bp.Msgs {
		if b, err = appendMessage(b, bp.Msgs[i]); err != nil {
			return b, err
		}
	}
	return b, nil
}

// readBatch hands h every message of a batch that arrived as bytes.
func readBatch(h Handler, b []byte) error {
	for len(b) > 0 {
		msg, n, err := readMessage(b)
		if err != nil {
			return err
		}
		h(msg)
		b = b[n:]
	}
	return nil
}

// release tells a payload its bytes have replaced it: the sender's value
// will not be delivered, so an owner that recycles it (a bin slab) may take
// it back. Only unicast payloads are released — a broadcast encodes one
// value once per copy — and only once the frame is committed.
func release(payload any) {
	switch p := payload.(type) {
	case *BatchPayload:
		for i := range p.Msgs {
			release(p.Msgs[i].Payload)
		}
	case interface{ Release() }:
		p.Release()
	}
}
