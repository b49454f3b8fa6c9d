// Package compress is a dependency-free block codec: a hand-rolled
// LZ4-style LZ77 codec (byte-oriented, no entropy stage) and a "none"
// passthrough, framed self-describingly — codec id + uvarint raw length +
// uvarint payload length + payload — with incompressible blocks stored
// raw, so a reader needs no out-of-band configuration and a pathological
// input costs at most the frame header.
//
// Neither engine compresses anything: the paper's byte accounting is
// uncompressed, and an ablation showed the codec never made HAMR faster
// (EXPERIMENTS.md, "Block compression and the block cache"). The only
// caller left is the benchmark's compress probe (benchmark/layers.go),
// which compiles against Lookup, LZ, AppendFrame, DecodeFrame and Meter; a
// benchmark change retires the probe and this package together.
//
// A Meter carries optional byte and frame counters; a nil Meter is valid
// everywhere. Compressing costs no modeled time: nothing here charges a
// clock.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/hamr-go/hamr/internal/metrics"
)

// Codec is a block codec: one Encode call compresses one self-contained
// block, one Decode call reverses it. Implementations append to the dst
// they are given (which may be nil) and return the extended slice; they
// must not retain src.
type Codec interface {
	// Encode appends the compressed form of src to dst.
	Encode(dst, src []byte) []byte
	// Decode appends the decompressed form of src to dst. rawLen is the
	// expected decoded size from the frame header; implementations use it
	// to bound work and MUST error (never panic or over-allocate) when
	// the payload disagrees with it.
	Decode(dst, src []byte, rawLen int) ([]byte, error)
	// Name is the codec's registry name ("lz").
	Name() string
}

// Codec ids baked into frame headers. Stored frames (idRaw) are emitted
// whenever compression is skipped or does not pay, so every id below must
// decode bytes written by any build that knew it.
const (
	idRaw = 0x00 // stored: payload is the raw block
	idLZ  = 0x01 // the LZ4-style LZ77 codec (lz.go)
)

// Typed frame errors. Callers match with errors.Is; all decode failures
// wrap one of these, so corrupt data is distinguishable from IO errors.
var (
	// ErrTruncated reports a frame shorter than its header promises.
	ErrTruncated = errors.New("compress: truncated frame")
	// ErrBadCodec reports an unknown codec id byte.
	ErrBadCodec = errors.New("compress: unknown codec id")
	// ErrCorrupt reports a payload that does not decode to the raw length
	// the header claims (lying headers included).
	ErrCorrupt = errors.New("compress: corrupt frame")
)

// maxFrameRaw is the sanity bound on a frame's claimed raw length: no
// layer in the repo frames blocks anywhere near this large, so a bigger
// claim is corruption, not data. It also bounds what a lying header can
// make Decode allocate.
const maxFrameRaw = 1 << 28 // 256 MiB

// allocStep caps how much DecodeFrame pre-grows dst ahead of decoded
// bytes actually materializing, so a lying raw-length header cannot turn
// into a huge allocation before the payload runs dry.
const allocStep = 1 << 20

// codecs is the id-indexed registry used by frame decoding.
var codecs = [...]Codec{
	idRaw: nil, // stored frames bypass the codec entirely
	idLZ:  LZ{},
}

// Lookup resolves a codec by registry name. The empty string and "none"
// both return a nil Codec, which AppendFrame stores raw.
func Lookup(name string) (Codec, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "lz":
		return LZ{}, nil
	}
	return nil, fmt.Errorf("compress: unknown codec %q (want lz or none)", name)
}

func idOf(c Codec) byte {
	if _, ok := c.(LZ); ok {
		return idLZ
	}
	return idRaw
}

// Meter accounts for one compression site. Every field may be zero/nil; a
// nil *Meter is valid and free. Counter semantics: In is raw bytes entering
// Encode, Out is frame bytes leaving it (header included), SiteOut is the
// same bytes on the site's own counter, Skipped counts frames stored raw
// (under the minimum size or incompressible).
type Meter struct {
	In, Out, Skipped, SiteOut *metrics.Counter
}

func (m *Meter) onEncode(rawLen, frameLen int, stored bool) {
	if stored {
		m.Skip()
	}
	m.Encoded(rawLen, frameLen)
}

// Encoded accounts one encoded frame: rawLen bytes in, frameLen bytes
// out.
func (m *Meter) Encoded(rawLen, frameLen int) {
	if m == nil {
		return
	}
	if m.In != nil {
		m.In.Add(int64(rawLen))
	}
	if m.Out != nil {
		m.Out.Add(int64(frameLen))
	}
	if m.SiteOut != nil {
		m.SiteOut.Add(int64(frameLen))
	}
}

// Skip counts one frame that went out uncompressed.
func (m *Meter) Skip() {
	if m != nil && m.Skipped != nil {
		m.Skipped.Inc()
	}
}

// scratchPool recycles encode scratch buffers across frames.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// AppendFrame compresses src into one self-describing frame appended to
// dst. Frame layout:
//
//	codecID byte | uvarint(rawLen) | uvarint(encLen) | encLen payload bytes
//
// When codec is nil, src is under minBytes, or the codec output would not
// beat storing raw, the frame is stored (codecID 0, encLen == rawLen) and
// the meter counts a skip. The frame for empty src is the 3-byte header.
func AppendFrame(codec Codec, dst, src []byte, minBytes int, m *Meter) []byte {
	var enc []byte
	var sp *[]byte
	id := idRaw
	if codec != nil && len(src) >= minBytes && len(src) > 0 {
		sp = scratchPool.Get().(*[]byte)
		e := codec.Encode((*sp)[:0], src)
		*sp = e[:0:cap(e)] // keep grown capacity for the pool
		if len(e) < len(src) {
			enc = e
			id = int(idOf(codec))
		} // else incompressible: store raw
	}
	base := len(dst)
	stored := enc == nil
	body := enc
	if stored {
		body = src
	}
	var hdr [2*binary.MaxVarintLen64 + 1]byte
	hdr[0] = byte(id)
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(len(src)))
	n += binary.PutUvarint(hdr[n:], uint64(len(body)))
	dst = append(dst, hdr[:n]...)
	dst = append(dst, body...)
	if sp != nil {
		scratchPool.Put(sp)
	}
	m.onEncode(len(src), len(dst)-base, stored)
	return dst
}

// DecodeFrame decodes exactly one frame from the front of buf, appending
// the raw bytes to dst. It returns the extended dst and the remainder of
// buf after the frame. All failures wrap ErrTruncated, ErrBadCodec or
// ErrCorrupt; a lying raw-length header is detected without allocating
// more than the payload can actually produce (plus one allocStep). A
// Meter counts only what is encoded: m is kept for the callers that pass
// one, and read by nothing.
func DecodeFrame(dst, buf []byte, m *Meter) (out, rest []byte, err error) {
	if len(buf) == 0 {
		return dst, buf, fmt.Errorf("%w: empty input", ErrTruncated)
	}
	id := buf[0]
	if int(id) >= len(codecs) || (id != idRaw && codecs[id] == nil) {
		return dst, buf, fmt.Errorf("%w: 0x%02x", ErrBadCodec, id)
	}
	p := buf[1:]
	rawLen, n := binary.Uvarint(p)
	if n <= 0 {
		return dst, buf, fmt.Errorf("%w: bad raw length", ErrTruncated)
	}
	p = p[n:]
	encLen, n := binary.Uvarint(p)
	if n <= 0 {
		return dst, buf, fmt.Errorf("%w: bad payload length", ErrTruncated)
	}
	p = p[n:]
	if rawLen > maxFrameRaw {
		return dst, buf, fmt.Errorf("%w: implausible raw length %d", ErrCorrupt, rawLen)
	}
	if encLen > uint64(len(p)) {
		return dst, buf, fmt.Errorf("%w: payload %d bytes, have %d", ErrTruncated, encLen, len(p))
	}
	body, rest := p[:encLen], p[encLen:]

	if id == idRaw {
		if uint64(len(body)) != rawLen {
			return dst, buf, fmt.Errorf("%w: stored frame %d bytes, header claims %d", ErrCorrupt, len(body), rawLen)
		}
		return append(dst, body...), rest, nil
	}
	out, err = codecs[id].Decode(dst, body, int(rawLen))
	if err != nil {
		return dst, buf, err
	}
	return out, rest, nil
}
