package compress

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Stream layer: a Writer buffers raw bytes into fixed-size blocks and
// emits one self-describing frame per block; a Reader walks the frames
// back into a contiguous byte stream. Run files (internal/extsort) layer
// RecordWriter → compress.Writer → disk file, so record framing stays
// untouched and the codec sees whole 64 KiB blocks of records — enough
// context for LZ77 to find the cross-record repetition that single-record
// compression would miss.

// streamBufPool recycles the block-sized buffers of Writers and Readers.
var streamBufPool = sync.Pool{New: func() any { return new([]byte) }}

func getStreamBuf(n int) *[]byte {
	bp := streamBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	*bp = (*bp)[:0]
	return bp
}

func putStreamBuf(bp *[]byte) {
	if bp != nil {
		streamBufPool.Put(bp)
	}
}

// Writer is an io.WriteCloser that compresses its input as a sequence of
// frames. Close flushes the final partial block and closes the underlying
// writer if it is an io.Closer (matching storage.RecordWriter's chaining
// contract, so the run-file stack tears down with one Close).
type Writer struct {
	w        io.Writer
	cfg      Config
	blockLen int
	raw      *[]byte // pending raw bytes, len < blockLen after Write
	frame    *[]byte // frame scratch
	err      error
}

// NewWriter wraps w. blockLen <= 0 selects DefaultBlockSize.
func NewWriter(w io.Writer, cfg Config, blockLen int) *Writer {
	if blockLen <= 0 {
		blockLen = DefaultBlockSize
	}
	return &Writer{
		w:        w,
		cfg:      cfg,
		blockLen: blockLen,
		raw:      getStreamBuf(blockLen),
		frame:    getStreamBuf(blockLen),
	}
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	total := len(p)
	for len(p) > 0 {
		room := w.blockLen - len(*w.raw)
		if room == 0 {
			if err := w.flushBlock(); err != nil {
				return total - len(p), err
			}
			room = w.blockLen
		}
		n := min(room, len(p))
		*w.raw = append(*w.raw, p[:n]...)
		p = p[n:]
	}
	return total, nil
}

func (w *Writer) flushBlock() error {
	if len(*w.raw) == 0 {
		return nil
	}
	*w.frame = AppendFrame(w.cfg.Codec, (*w.frame)[:0], *w.raw, w.cfg.MinBytes, w.cfg.Meter)
	*w.raw = (*w.raw)[:0]
	if _, err := w.w.Write(*w.frame); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Flush ends the open block: what has been written so far goes out as
// whole frames, so the bytes written from here on decode without them.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.flushBlock()
}

// Close flushes the final block and closes the underlying writer if it
// is an io.Closer. Double-Close is safe.
func (w *Writer) Close() error {
	if w.raw == nil {
		return nil
	}
	err := w.flushBlock()
	putStreamBuf(w.raw)
	putStreamBuf(w.frame)
	w.raw, w.frame = nil, nil
	if c, ok := w.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	if w.err == nil {
		w.err = errors.New("compress: writer closed")
	}
	return err
}

// Reader is an io.ReadCloser that decompresses a stream of frames
// written by Writer. It reads the underlying stream in frame-sized
// chunks; short reads from r are handled (frames straddle Read calls).
type Reader struct {
	r      io.Reader
	meter  *Meter
	in     *[]byte // compressed bytes not yet framed, in[inOff:]
	inOff  int
	out    *[]byte // decoded bytes not yet returned, out[outOff:]
	outOff int
	eof    bool
	err    error
}

// NewReader wraps r; meter may be nil. The reader does its own
// buffering — no bufio layer is needed underneath.
func NewReader(r io.Reader, meter *Meter) *Reader {
	return &Reader{r: r, meter: meter, in: getStreamBuf(DefaultBlockSize), out: getStreamBuf(DefaultBlockSize)}
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.in == nil {
		return 0, r.err
	}
	for r.outOff == len(*r.out) {
		if r.err != nil {
			return 0, r.err
		}
		if err := r.nextFrame(); err != nil {
			r.err = err
			return 0, err
		}
	}
	n := copy(p, (*r.out)[r.outOff:])
	r.outOff += n
	return n, nil
}

// nextFrame decodes one more frame into out, refilling in from the
// underlying reader as needed.
func (r *Reader) nextFrame() error {
	for {
		if r.inOff > 0 {
			// Compact consumed bytes so the buffer does not creep.
			*r.in = append((*r.in)[:0], (*r.in)[r.inOff:]...)
			r.inOff = 0
		}
		if len(*r.in) > 0 {
			out, rest, err := DecodeFrame((*r.out)[:0], *r.in, r.meter)
			if err == nil {
				*r.out = out
				r.outOff = 0
				r.inOff = len(*r.in) - len(rest)
				return nil
			}
			if !errors.Is(err, ErrTruncated) || r.eof {
				if r.eof && errors.Is(err, ErrTruncated) {
					return fmt.Errorf("%w: stream ends mid-frame", ErrTruncated)
				}
				return err
			}
			// Truncated but more input may arrive: fall through to refill.
		} else if r.eof {
			return io.EOF
		}
		if err := r.fill(); err != nil {
			return err
		}
	}
}

// fill reads more compressed bytes, growing in by block-sized steps.
func (r *Reader) fill() error {
	if r.eof {
		return nil
	}
	have := len(*r.in)
	want := have + DefaultBlockSize
	if cap(*r.in) < want {
		grown := make([]byte, have, want)
		copy(grown, *r.in)
		*r.in = grown
	}
	n, err := r.r.Read((*r.in)[have:want])
	*r.in = (*r.in)[:have+n]
	if err == io.EOF {
		r.eof = true
		return nil
	}
	return err
}

// Close releases buffers and closes the underlying reader if it is an
// io.Closer. Double-Close is safe.
func (r *Reader) Close() error {
	if r.in == nil {
		return nil
	}
	putStreamBuf(r.in)
	putStreamBuf(r.out)
	r.in, r.out = nil, nil
	r.err = errors.New("compress: reader closed")
	if c, ok := r.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
