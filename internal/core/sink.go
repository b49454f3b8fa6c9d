package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Sink receives a job's output pairs. Write is called concurrently from
// different nodes but serially per node; Close(node) is called once when
// the sink's input completes on that node.
type Sink interface {
	Write(node int, kv KV) error
	Close(node int) error
}

// CollectSink gathers all output pairs in memory; used by tests, examples
// and result verification. Each node appends to its own list of chunks —
// Write is serial per node, so nodes do not contend and nothing is ever
// re-copied to grow — and the readers concatenate them, node by node in
// write order.
type CollectSink struct {
	mu    sync.RWMutex // guards the nodes map, not the lists in it
	nodes map[int]*collected
}

// Chunks double from minCollectChunk to maxCollectChunk pairs, so a small
// output stays small and a large one wastes at most its last chunk.
const (
	minCollectChunk = 64
	maxCollectChunk = 4096
)

// collected is one node's pairs. Its mutex is only ever contended by a
// reader running beside the node's writer.
type collected struct {
	mu     sync.Mutex
	chunks [][]KV
}

// NewCollectSink returns an empty collector.
func NewCollectSink() *CollectSink { return &CollectSink{nodes: make(map[int]*collected)} }

func (s *CollectSink) node(id int) *collected {
	s.mu.RLock()
	c := s.nodes[id]
	s.mu.RUnlock()
	if c == nil {
		s.mu.Lock()
		if c = s.nodes[id]; c == nil {
			c = &collected{}
			s.nodes[id] = c
		}
		s.mu.Unlock()
	}
	return c
}

// Write implements Sink.
func (s *CollectSink) Write(node int, kv KV) error {
	c := s.node(node)
	c.mu.Lock()
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == cap(c.chunks[last]) {
		size := minCollectChunk
		if last >= 0 {
			size = min(2*cap(c.chunks[last]), maxCollectChunk)
		}
		c.chunks = append(c.chunks, make([]KV, 0, size))
		last++
	}
	c.chunks[last] = append(c.chunks[last], kv)
	c.mu.Unlock()
	return nil
}

// Close implements Sink.
func (s *CollectSink) Close(node int) error { return nil }

// byNode returns the per-node lists in node order.
func (s *CollectSink) byNode() []*collected {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]int, 0, len(s.nodes))
	for id := range s.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	lists := make([]*collected, len(ids))
	for i, id := range ids {
		lists[i] = s.nodes[id]
	}
	return lists
}

// countPairs sums the lengths of the lists.
func countPairs(lists []*collected) int {
	total := 0
	for _, c := range lists {
		c.mu.Lock()
		for _, chunk := range c.chunks {
			total += len(chunk)
		}
		c.mu.Unlock()
	}
	return total
}

// Pairs returns a copy of all collected pairs.
func (s *CollectSink) Pairs() []KV {
	lists := s.byNode()
	kvs := make([]KV, 0, countPairs(lists))
	for _, c := range lists {
		c.mu.Lock()
		for _, chunk := range c.chunks {
			kvs = append(kvs, chunk...)
		}
		c.mu.Unlock()
	}
	return kvs
}

// Sorted returns all collected pairs sorted by key (ties broken by the
// formatted value) for deterministic comparison in tests.
func (s *CollectSink) Sorted() []KV {
	kvs := s.Pairs()
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].Key != kvs[j].Key {
			return kvs[i].Key < kvs[j].Key
		}
		return fmt.Sprint(kvs[i].Value) < fmt.Sprint(kvs[j].Value)
	})
	return kvs
}

// Len returns the number of collected pairs.
func (s *CollectSink) Len() int { return countPairs(s.byNode()) }

// Map returns the collected pairs as a map; duplicate keys keep the last
// written value.
func (s *CollectSink) Map() map[string]any {
	kvs := s.Pairs()
	m := make(map[string]any, len(kvs))
	for _, kv := range kvs {
		m[kv.Key] = kv.Value
	}
	return m
}

// CountSink counts output pairs without retaining them; used for large
// benchmark outputs.
type CountSink struct {
	mu    sync.Mutex
	count int64
	bytes int64
}

// NewCountSink returns a zeroed counting sink.
func NewCountSink() *CountSink { return &CountSink{} }

// Write implements Sink.
func (s *CountSink) Write(node int, kv KV) error {
	s.mu.Lock()
	s.count++
	s.bytes += kv.Size()
	s.mu.Unlock()
	return nil
}

// Close implements Sink.
func (s *CountSink) Close(node int) error { return nil }

// Count returns the number of pairs written.
func (s *CountSink) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Bytes returns the approximate bytes written.
func (s *CountSink) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// FileSink writes formatted pairs to one writer per node (e.g. part files
// on each node's local disk — the paper's "output can happen not only in
// reduce but also in map", §3.3). Each node's lines gather in a buffer of
// fileSinkBuf bytes that is written when full and on Close, so the writer
// sees a few large writes, not one per pair. Write and Close are serial
// per node (the Sink contract), so a node's buffer needs no lock.
type FileSink struct {
	open   func(node int) (io.WriteCloser, error)
	format func(kv KV) string
	mu     sync.Mutex // guards files, not the buffers in it
	files  map[int]*sinkFile
}

// fileSinkBuf is the size at which a node's buffered lines are written.
const fileSinkBuf = 64 << 10

// sinkFile is one node's writer and the lines not yet written to it.
type sinkFile struct {
	w   io.WriteCloser
	buf []byte
}

// NewFileSink creates a sink whose per-node writers come from open and
// whose record format is produced by format (nil for AppendLine's
// "key\tvalue\n").
func NewFileSink(open func(node int) (io.WriteCloser, error), format func(kv KV) string) *FileSink {
	return &FileSink{open: open, format: format, files: make(map[int]*sinkFile)}
}

func (s *FileSink) file(node int) (*sinkFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[node]; ok {
		return f, nil
	}
	w, err := s.open(node)
	if err != nil {
		return nil, err
	}
	f := &sinkFile{w: w, buf: make([]byte, 0, fileSinkBuf)}
	s.files[node] = f
	return f, nil
}

// Write implements Sink.
func (s *FileSink) Write(node int, kv KV) error {
	f, err := s.file(node)
	if err != nil {
		return err
	}
	if s.format == nil {
		f.buf = AppendLine(f.buf, kv)
	} else {
		f.buf = append(f.buf, s.format(kv)...)
	}
	if len(f.buf) < fileSinkBuf {
		return nil
	}
	_, err = f.w.Write(f.buf)
	f.buf = f.buf[:0]
	return err
}

// Close implements Sink: it writes what the node's buffer holds and closes
// its writer, which is closed even when that last write fails.
func (s *FileSink) Close(node int) error {
	s.mu.Lock()
	f, ok := s.files[node]
	delete(s.files, node)
	s.mu.Unlock()
	if !ok {
		return nil
	}
	var err error
	if len(f.buf) > 0 {
		_, err = f.w.Write(f.buf)
	}
	return errors.Join(err, f.w.Close())
}

// AppendLine appends kv's text line to dst: "key\tvalue\n", with the value
// as fmt's %v prints it. The common value types are appended directly, the
// rest go through fmt.
func AppendLine(dst []byte, kv KV) []byte {
	dst = append(dst, kv.Key...)
	dst = append(dst, '\t')
	switch v := kv.Value.(type) {
	case string:
		dst = append(dst, v...)
	case int:
		dst = strconv.AppendInt(dst, int64(v), 10)
	case int64:
		dst = strconv.AppendInt(dst, v, 10)
	case float64:
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	default:
		dst = fmt.Append(dst, v)
	}
	return append(dst, '\n')
}

// FuncSink adapts a function to the Sink interface; Close is a no-op.
type FuncSink func(node int, kv KV) error

// Write implements Sink.
func (f FuncSink) Write(node int, kv KV) error { return f(node, kv) }

// Close implements Sink.
func (f FuncSink) Close(node int) error { return nil }

var (
	_ Sink = (*CollectSink)(nil)
	_ Sink = (*CountSink)(nil)
	_ Sink = (*FileSink)(nil)
	_ Sink = (FuncSink)(nil)
)
