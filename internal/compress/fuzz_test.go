package compress

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder. The
// invariant under fuzzing is the one the corrupt-frame suite checks by
// hand: hostile input yields a typed error — never a panic, and never an
// allocation driven by a lying raw-length header (the decoder grows its
// buffer in allocStep increments as real payload arrives, so a header
// claiming 256 MiB for a 10-byte frame cannot balloon memory).
func FuzzDecodeFrame(f *testing.F) {
	// Seed with well-formed frames of each codec and the classic corrupt
	// shapes, so coverage starts at the interesting boundaries.
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 40)
	for _, c := range []Codec{nil, LZ{}} {
		f.Add(AppendFrame(c, nil, text, 0, nil))
		f.Add(AppendFrame(c, nil, []byte("x"), 0, nil))
		f.Add(AppendFrame(c, nil, nil, 0, nil))
	}
	f.Add([]byte{idLZ, 0xff, 0xff, 0xff, 0xff, 0x7f, 3, 1, 2, 3}) // lying rawLen
	f.Add([]byte{99, 4, 4, 'a', 'b', 'c', 'd'})                   // unknown codec id
	f.Add([]byte{0x02, 10, 2, 0, 0})                              // flate's retired id: unknown

	f.Fuzz(func(t *testing.T, frame []byte) {
		out, rest, err := DecodeFrame(nil, frame, nil)
		if err != nil {
			return
		}
		// A frame that decodes must round-trip through re-encoding: encode
		// the decoded payload with each codec and decode it back.
		for _, c := range []Codec{nil, LZ{}} {
			re := AppendFrame(c, nil, out, 0, nil)
			back, rest2, err2 := DecodeFrame(nil, re, nil)
			if err2 != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err2)
			}
			if len(rest2) != 0 {
				t.Fatalf("re-encoded frame left %d trailing bytes", len(rest2))
			}
			if !bytes.Equal(back, out) {
				t.Fatalf("codec %v round-trip mismatch: %d bytes vs %d", c, len(back), len(out))
			}
		}
		_ = rest // trailing bytes after a valid frame are legal
	})
}

// FuzzLZDecode drives the LZ token decoder directly with arbitrary
// payloads and claimed raw lengths: every return must be a typed error or
// a buffer of exactly rawLen bytes.
func FuzzLZDecode(f *testing.F) {
	text := bytes.Repeat([]byte("abcabcabcabc compressible payload "), 30)
	enc := LZ{}.Encode(nil, text)
	f.Add(enc, len(text))
	f.Add(enc[:len(enc)/2], len(text))
	f.Add([]byte{0x00}, 0)
	f.Add([]byte{0xf0, 1, 2, 3}, 4)

	f.Fuzz(func(t *testing.T, payload []byte, rawLen int) {
		if rawLen < 0 || rawLen > maxFrameRaw {
			return
		}
		out, err := LZ{}.Decode(nil, payload, rawLen)
		if err == nil && len(out) != rawLen {
			t.Fatalf("LZ decode returned %d bytes, claimed rawLen %d", len(out), rawLen)
		}
	})
}
