package compress

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/metrics"
)

// corpora returns byte shapes matching what the repo actually compresses:
// repetitive word text, TeraSort-style fixed-layout lines, uvarint-framed
// KV records, plus adversarial shapes (random = incompressible, runs,
// empty-ish).
func corpora() map[string][]byte {
	rng := rand.New(rand.NewSource(42))
	words := []string{"the", "quick", "brown", "fox", "jumps", "over", "lazy",
		"dog", "hadoop", "hamr", "dataflow", "shuffle", "spill", "merge", "block", "codec"}
	var text bytes.Buffer
	for text.Len() < 200<<10 {
		fmt.Fprintf(&text, "%s ", words[rng.Intn(len(words))])
	}
	var tera bytes.Buffer
	for i := 0; tera.Len() < 150<<10; i++ {
		fmt.Fprintf(&tera, "%010x-%08d-payload-payload-payload\n", rng.Int63(), i)
	}
	randBytes := make([]byte, 64<<10)
	rng.Read(randBytes)
	return map[string][]byte{
		"text":  text.Bytes(),
		"tera":  tera.Bytes(),
		"runs":  bytes.Repeat([]byte("aaaaaaaabbbb"), 5000),
		"rand":  randBytes,
		"tiny":  []byte("x"),
		"empty": {},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, codec := range []Codec{LZ{}} {
		for name, data := range corpora() {
			t.Run(codec.Name()+"/"+name, func(t *testing.T) {
				enc := codec.Encode(nil, data)
				dec, err := codec.Decode(nil, enc, len(data))
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !bytes.Equal(dec, data) {
					t.Fatalf("round trip mismatch: got %d bytes want %d", len(dec), len(data))
				}
				if name == "text" || name == "tera" || name == "runs" {
					if len(enc) >= len(data) {
						t.Errorf("no compression on %s: %d >= %d", name, len(enc), len(data))
					}
					t.Logf("%s/%s: %d -> %d (%.2fx)", codec.Name(), name, len(data), len(enc),
						float64(len(data))/float64(len(enc)))
				}
			})
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, codec := range []Codec{nil, LZ{}} {
		name := "none"
		if codec != nil {
			name = codec.Name()
		}
		for cname, data := range corpora() {
			t.Run(name+"/"+cname, func(t *testing.T) {
				frame := AppendFrame(codec, nil, data, 64, nil)
				dec, rest, err := DecodeFrame(nil, frame, nil)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if len(rest) != 0 {
					t.Fatalf("%d trailing bytes", len(rest))
				}
				if !bytes.Equal(dec, data) {
					t.Fatal("frame round trip mismatch")
				}
			})
		}
	}
}

// TestFrameStoredWhenIncompressible: random bytes must be stored raw, and
// under-min blocks skipped, with the skip counter advancing.
func TestFrameStoredWhenIncompressible(t *testing.T) {
	reg := metrics.NewRegistry()
	m := &Meter{In: reg.Counter("in"), Out: reg.Counter("out"), Skipped: reg.Counter("skip")}
	rnd := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(rnd)
	frame := AppendFrame(LZ{}, nil, rnd, 0, m)
	if frame[0] != idRaw {
		t.Fatalf("incompressible block not stored raw (id %d)", frame[0])
	}
	if len(frame) > len(rnd)+8 {
		t.Fatalf("stored frame blew up: %d vs %d raw", len(frame), len(rnd))
	}
	small := []byte("hi")
	AppendFrame(LZ{}, nil, small, 64, m)
	if got := reg.Counter("skip").Value(); got != 2 {
		t.Fatalf("skipped = %d, want 2", got)
	}
	if got := reg.Counter("in").Value(); got != int64(len(rnd)+len(small)) {
		t.Fatalf("in.bytes = %d", got)
	}
}

// TestCorruptFrames is the corrupt-frame suite: truncations at every
// boundary, bad codec ids, and lying raw-length headers must return the
// matching typed error and never panic.
func TestCorruptFrames(t *testing.T) {
	data := []byte(strings.Repeat("compressible data ", 200))
	good := AppendFrame(LZ{}, nil, data, 0, nil)

	t.Run("empty", func(t *testing.T) {
		if _, _, err := DecodeFrame(nil, nil, nil); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("bad-codec-id", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[0] = 0x7F
		if _, _, err := DecodeFrame(nil, bad, nil); !errors.Is(err, ErrBadCodec) {
			t.Fatalf("err = %v, want ErrBadCodec", err)
		}
	})
	t.Run("truncated-everywhere", func(t *testing.T) {
		for cut := 0; cut < len(good); cut++ {
			_, _, err := DecodeFrame(nil, good[:cut], nil)
			if err == nil {
				t.Fatalf("cut at %d decoded successfully", cut)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut at %d: err = %v, want typed", cut, err)
			}
		}
	})
	t.Run("lying-raw-length", func(t *testing.T) {
		// Rebuild the header claiming double the raw length.
		body := good[headerLen(good):]
		lying := appendHeader(nil, good[0], uint64(len(data)*2), uint64(len(body)))
		lying = append(lying, body...)
		if _, _, err := DecodeFrame(nil, lying, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("implausible-raw-length", func(t *testing.T) {
		lying := appendHeader(nil, good[0], 1<<40, 4)
		lying = append(lying, 1, 2, 3, 4)
		if _, _, err := DecodeFrame(nil, lying, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("stored-length-mismatch", func(t *testing.T) {
		lying := appendHeader(nil, idRaw, 10, 4)
		lying = append(lying, 1, 2, 3, 4)
		if _, _, err := DecodeFrame(nil, lying, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("garbage-lz-payload", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 500; trial++ {
			garbage := make([]byte, rng.Intn(256))
			rng.Read(garbage)
			frame := appendHeader(nil, idLZ, uint64(rng.Intn(4096)), uint64(len(garbage)))
			frame = append(frame, garbage...)
			_, _, err := DecodeFrame(nil, frame, nil)
			// Any result is fine as long as errors are typed and no panic.
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped error: %v", err)
			}
		}
	})
}

func TestLookup(t *testing.T) {
	for _, name := range []string{"", "none"} {
		if c, err := Lookup(name); err != nil || c != nil {
			t.Fatalf("Lookup(%q) = %v, %v", name, c, err)
		}
	}
	if c, err := Lookup("lz"); err != nil || c != (LZ{}) {
		t.Fatalf("Lookup(lz) = %v, %v", c, err)
	}
	for _, name := range []string{"flate", "zstd"} {
		if _, err := Lookup(name); err == nil {
			t.Fatalf("Lookup(%s) should fail", name)
		}
	}
}

// headerLen parses how many bytes of frame are header.
func headerLen(frame []byte) int {
	p := frame[1:]
	_, n1 := uvarint(p)
	_, n2 := uvarint(p[n1:])
	return 1 + n1 + n2
}

func appendHeader(dst []byte, id byte, rawLen, encLen uint64) []byte {
	dst = append(dst, id)
	dst = appendUvarint(dst, rawLen)
	return appendUvarint(dst, encLen)
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func uvarint(p []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(p); i++ {
		v |= uint64(p[i]&0x7F) << (7 * i)
		if p[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
