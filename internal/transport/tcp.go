package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/hamr-go/hamr/internal/vtime"
)

// ioBufSize is the buffered reader/writer size per connection; large
// enough that a coalesced batch frame of small messages goes out in one
// write syscall.
const ioBufSize = 64 << 10

// writerPool / readerPool recycle the per-connection bufio buffers, so
// short-lived connections (tests, one-shot jobs) don't each pay a 64 KiB
// allocation.
var writerPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, ioBufSize) },
}

var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(bytes.NewReader(nil), ioBufSize) },
}

// TCPNetwork is a Network whose nodes live in (possibly) different
// processes and communicate over TCP. Each node runs a listener;
// connections are established lazily per destination and reused.
//
// Wire format: a stream of frames, each a uvarint byte length (at most
// maxFrame) followed by exactly one message in wire form (wire.go).
// Messages are encoded into a scratch buffer and framed, so one Send is one
// buffered write plus one flush — a single syscall even for a coalesced
// batch of many small messages. Coalesced KindBatch frames are unpacked
// before the handler runs (see dispatch). A peer that sends anything else —
// an oversized length, a frame that is not one whole message, a batch that
// does not decode — has its connection closed.
//
// TCPNetwork exists to demonstrate the engine over the real network stack;
// the simulated-cluster benchmarks use InMemNetwork.
type TCPNetwork struct {
	mu        sync.Mutex
	addrs     map[NodeID]string
	listeners map[NodeID]net.Listener
	conns     map[connKey]*tcpConn
	handlers  map[NodeID]Handler
	wg        sync.WaitGroup
	closed    bool
	env       Env
}

// Use installs env (see Env). Env.Faults applies to every inbound frame:
// injected extra delay is charged to Env.Clock — this transport has no cost
// model — while drop/duplicate decisions only tick the injector's counters,
// since TCP itself already retransmits and dedups. Env.Trace is not used.
func (n *TCPNetwork) Use(env Env) { n.env = env.filled() }

type connKey struct {
	from, to NodeID
}

// maxFrame bounds the length prefix a reader will believe, so a hostile
// peer cannot size an allocation; a sender refuses what a reader would.
const maxFrame = 16 << 20

type tcpConn struct {
	mu      sync.Mutex
	c       net.Conn
	bw      *bufio.Writer
	scratch []byte
	lenBuf  [binary.MaxVarintLen64]byte
}

// send writes msg as one length-prefixed frame.
func (tc *tcpConn) send(msg Message) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var err error
	if tc.scratch, err = appendMessage(tc.scratch[:0], msg); err != nil {
		return err
	}
	if len(tc.scratch) > maxFrame {
		return fmt.Errorf("transport: %d-byte message exceeds the %d-byte frame bound", len(tc.scratch), maxFrame)
	}
	n := binary.PutUvarint(tc.lenBuf[:], uint64(len(tc.scratch)))
	if _, err := tc.bw.Write(tc.lenBuf[:n]); err != nil {
		return err
	}
	if _, err := tc.bw.Write(tc.scratch); err != nil {
		return err
	}
	return tc.bw.Flush()
}

// NewTCPNetwork creates a TCP network given the address of every node
// (host:port). Only nodes registered locally (via Register) will listen;
// remote nodes are reached by dialing their address.
func NewTCPNetwork(addrs map[NodeID]string) *TCPNetwork {
	cp := make(map[NodeID]string, len(addrs))
	for id, a := range addrs {
		cp[id] = a
	}
	return &TCPNetwork{
		addrs:     cp,
		listeners: make(map[NodeID]net.Listener),
		conns:     make(map[connKey]*tcpConn),
		handlers:  make(map[NodeID]Handler),
		env:       Env{}.filled(),
	}
}

// Register implements Network: it starts a listener on the node's address
// and serves inbound messages to the handler.
func (n *TCPNetwork) Register(node NodeID, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("transport: register on closed network")
	}
	addr, ok := n.addrs[node]
	if !ok {
		return fmt.Errorf("transport: no address for node %d", node)
	}
	if _, dup := n.handlers[node]; dup {
		return fmt.Errorf("transport: node %d already registered", node)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	// The listener may have been given port 0; record the concrete address
	// so other local nodes can dial it.
	n.addrs[node] = ln.Addr().String()
	n.listeners[node] = ln
	n.handlers[node] = h
	n.wg.Add(1)
	go n.serve(ln, h, node)
	return nil
}

// Addr returns the concrete listen address for a registered node.
func (n *TCPNetwork) Addr(node NodeID) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addrs[node]
}

func (n *TCPNetwork) serve(ln net.Listener, h Handler, node NodeID) {
	defer n.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer c.Close()
			br := readerPool.Get().(*bufio.Reader)
			br.Reset(c)
			defer func() {
				br.Reset(bytes.NewReader(nil))
				readerPool.Put(br)
			}()
			var frame []byte
			for {
				size, err := binary.ReadUvarint(br)
				if err != nil || size > maxFrame {
					return
				}
				if uint64(cap(frame)) < size {
					frame = make([]byte, size)
				}
				frame = frame[:size]
				if _, err := io.ReadFull(br, frame); err != nil {
					return
				}
				msg, used, err := readMessage(frame)
				if err != nil || used != len(frame) {
					return
				}
				if hook := n.env.Faults; hook != nil {
					if _, _, extra := hook.DeliveryFault(int(node), msg.Size); extra > 0 {
						n.env.Clock.Charge(int(node), vtime.Fault, extra)
					}
				}
				if dispatch(h, msg) != nil {
					return
				}
			}
		}()
	}
}

func (n *TCPNetwork) conn(from, to NodeID) (*tcpConn, error) {
	key := connKey{from, to}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errors.New("transport: send on closed network")
	}
	if tc, ok := n.conns[key]; ok {
		n.mu.Unlock()
		return tc, nil
	}
	addr, ok := n.addrs[to]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: no address for node %d", to)
	}
	n.mu.Unlock()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial node %d at %s: %w", to, addr, err)
	}
	tc := &tcpConn{c: c}
	tc.bw = writerPool.Get().(*bufio.Writer)
	tc.bw.Reset(c)
	n.mu.Lock()
	if existing, ok := n.conns[key]; ok {
		n.mu.Unlock()
		c.Close()
		tc.bw.Reset(io.Discard)
		writerPool.Put(tc.bw)
		return existing, nil
	}
	n.conns[key] = tc
	n.mu.Unlock()
	return tc, nil
}

// Send implements Network. Broadcast expands to a unicast per known node.
// A unicast payload is released once its frame is written (see release).
func (n *TCPNetwork) Send(msg Message) error {
	if msg.To != Broadcast {
		if err := n.sendTo(msg, msg.To); err != nil {
			return err
		}
		release(msg.Payload)
		return nil
	}
	n.mu.Lock()
	ids := make([]NodeID, 0, len(n.addrs))
	for id := range n.addrs {
		ids = append(ids, id)
	}
	n.mu.Unlock()
	for _, id := range ids {
		if err := n.sendTo(msg, id); err != nil {
			return err
		}
	}
	return nil
}

func (n *TCPNetwork) sendTo(msg Message, to NodeID) error {
	msg.To = to
	tc, err := n.conn(msg.From, to)
	if err != nil {
		return err
	}
	if err := tc.send(msg); err != nil {
		return fmt.Errorf("transport: send to node %d: %w", to, err)
	}
	return nil
}

// Close implements Network.
func (n *TCPNetwork) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	for _, ln := range n.listeners {
		ln.Close()
	}
	conns := make([]*tcpConn, 0, len(n.conns))
	for _, tc := range n.conns {
		conns = append(conns, tc)
	}
	n.mu.Unlock()
	for _, tc := range conns {
		tc.c.Close()
		// Best-effort buffer recycling: skip any connection with a Send
		// still in flight rather than racing it for the writer.
		if tc.mu.TryLock() {
			tc.bw.Reset(io.Discard)
			writerPool.Put(tc.bw)
			tc.bw = bufio.NewWriterSize(io.Discard, 0)
			tc.mu.Unlock()
		}
	}
	n.wg.Wait()
	return nil
}

var _ Network = (*TCPNetwork)(nil)
