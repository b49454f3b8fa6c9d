package compress

import (
	"encoding/binary"
	"fmt"
)

// LZ is the hand-rolled LZ4-style LZ77 block codec: byte-aligned tokens,
// greedy matching through a 16K-entry hash table over 4-byte sequences,
// 2-byte little-endian match offsets (64 KiB window), no entropy stage.
//
// Block format (a sequence of sequences, mirroring LZ4's):
//
//	token byte: high nibble = literal length, low nibble = match length - 4
//	  (nibble 15 extends with 255-continuation bytes: add each 0xFF byte,
//	  stop at the first byte < 0xFF and add it too)
//	literal bytes
//	2-byte LE offset (1..65535, distance back into already-decoded output)
//	— the final sequence is literals-only: token low nibble 0, no offset.
type LZ struct{}

// Name implements Codec.
func (LZ) Name() string { return "lz" }

const (
	lzHashBits = 14
	lzHashLen  = 1 << lzHashBits
	lzMinMatch = 4
	lzMaxDist  = 65535
)

// lzHash mixes a 4-byte little-endian load down to lzHashBits. The
// multiplier is the 32-bit Knuth constant; LZ4 uses the same trick.
func lzHash(v uint32) uint32 { return (v * 2654435761) >> (32 - lzHashBits) }

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

// appendLen appends an LZ4-style extended length: base nibble already in
// the token, remainder as 255-continuation bytes.
func appendLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 0xFF)
		n -= 255
	}
	return append(dst, byte(n))
}

// Encode implements Codec. Output for incompressible input can exceed
// len(src) slightly (AppendFrame stores such blocks raw instead).
func (LZ) Encode(dst, src []byte) []byte {
	var table [lzHashLen]int32 // position+1 of last occurrence; 0 = empty

	n := len(src)
	litStart := 0 // start of pending literal run
	i := 0
	// Matches need 4 bytes to hash plus room to be worth the 3-byte
	// sequence overhead; the last few bytes always go out as literals.
	limit := n - lzMinMatch
	for i <= limit {
		h := lzHash(load32(src, i))
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || i-cand > lzMaxDist || load32(src, cand) != load32(src, i) {
			i++
			continue
		}
		// Extend the match forward.
		mlen := lzMinMatch
		for i+mlen < n && src[cand+mlen] == src[i+mlen] {
			mlen++
		}
		// Emit sequence: pending literals + this match.
		lit := i - litStart
		token := byte(0)
		if lit < 15 {
			token = byte(lit) << 4
		} else {
			token = 15 << 4
		}
		mt := mlen - lzMinMatch
		if mt < 15 {
			token |= byte(mt)
		} else {
			token |= 15
		}
		dst = append(dst, token)
		if lit >= 15 {
			dst = appendLen(dst, lit-15)
		}
		dst = append(dst, src[litStart:i]...)
		dst = append(dst, byte(i-cand), byte((i-cand)>>8))
		if mt >= 15 {
			dst = appendLen(dst, mt-15)
		}
		// Seed the table inside the match so runs keep matching; hashing
		// every position is the main cost, every other position loses
		// little ratio on this data.
		end := i + mlen
		for j := i + 1; j < end-lzMinMatch && j <= limit; j += 2 {
			table[lzHash(load32(src, j))] = int32(j + 1)
		}
		i = end
		litStart = i
	}
	// Final literals-only sequence.
	lit := n - litStart
	if lit < 15 {
		dst = append(dst, byte(lit)<<4)
	} else {
		dst = append(dst, 15<<4)
		dst = appendLen(dst, lit-15)
	}
	return append(dst, src[litStart:]...)
}

// Decode implements Codec. Every offset and length is validated against
// the bytes actually decoded so far; dst never grows more than one
// allocStep past the bytes materialized, so a lying rawLen cannot force a
// large allocation.
func (LZ) Decode(dst, src []byte, rawLen int) ([]byte, error) {
	base := len(dst)
	corrupt := func(format string, args ...any) ([]byte, error) {
		return dst[:base], fmt.Errorf("%w: lz: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if rawLen < 0 {
		return corrupt("negative raw length")
	}
	if want := base + min(rawLen, allocStep); cap(dst) < want {
		grown := make([]byte, len(dst), want)
		copy(grown, dst)
		dst = grown
	}
	i := 0
	for i < len(src) {
		token := src[i]
		i++
		// Literals.
		lit := int(token >> 4)
		if lit == 15 {
			for {
				if i >= len(src) {
					return corrupt("truncated literal length")
				}
				b := src[i]
				i++
				lit += int(b)
				if b < 0xFF {
					break
				}
			}
		}
		if lit > len(src)-i {
			return corrupt("literal run past input end")
		}
		if len(dst)-base+lit > rawLen {
			return corrupt("output exceeds declared raw length")
		}
		dst = append(dst, src[i:i+lit]...)
		i += lit
		if i == len(src) {
			// Final literals-only sequence: match nibble must be 0, or the
			// stream ended where an offset belonged.
			if token&0x0F != 0 {
				return corrupt("stream ends mid-sequence")
			}
			break
		}
		// Match.
		if len(src)-i < 2 {
			return corrupt("truncated match offset")
		}
		dist := int(src[i]) | int(src[i+1])<<8
		i += 2
		if dist == 0 {
			return corrupt("zero match offset")
		}
		if dist > len(dst)-base {
			return corrupt("match offset %d before block start (%d decoded)", dist, len(dst)-base)
		}
		mlen := int(token&0x0F) + lzMinMatch
		if token&0x0F == 15 {
			for {
				if i >= len(src) {
					return corrupt("truncated match length")
				}
				b := src[i]
				i++
				mlen += int(b)
				if b < 0xFF {
					break
				}
			}
		}
		if len(dst)-base+mlen > rawLen {
			return corrupt("output exceeds declared raw length")
		}
		// Byte-at-a-time copy: overlapping matches (dist < mlen) are the
		// run-length case and must see freshly written bytes.
		pos := len(dst) - dist
		for k := 0; k < mlen; k++ {
			dst = append(dst, dst[pos+k])
		}
	}
	if len(dst)-base != rawLen {
		return corrupt("decoded %d bytes, header claims %d", len(dst)-base, rawLen)
	}
	return dst, nil
}
