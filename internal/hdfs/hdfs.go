// Package hdfs simulates the Hadoop Distributed File System closely enough
// for the paper's evaluation: files are split into fixed-size blocks,
// blocks are replicated across datanodes (one datanode per cluster node,
// each backed by that node's modeled local disk), and readers can ask for
// block locations so schedulers can place computation near data (the
// locality behaviour §3.3 contrasts with).
//
// Reads from a node that holds a replica hit only the local disk; remote
// reads additionally pay the fabric through Config.Remote, which the
// cluster sets to its network's Transfer, so a remote block queues at the
// reader's ingress with the messages arriving there.
package hdfs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
)

// DefaultBlockSize is the scaled-down stand-in for HDFS's 64/128 MB blocks.
const DefaultBlockSize = 1 << 20

// Block describes one stored block of a file.
type Block struct {
	ID       string
	Offset   int64 // offset of the block within the file
	Size     int64
	Replicas []transport.NodeID
}

type fileMeta struct {
	name   string
	blocks []Block
	size   int64
}

// FileSystem is the namenode plus the set of datanodes.
type FileSystem struct {
	mu          sync.Mutex
	blockSize   int64
	replication int
	disks       []storage.Disk // indexed by NodeID
	files       map[string]*fileMeta
	nextBlock   int
	nextNode    int // round-robin placement cursor
	charge      func(from, to transport.NodeID, bytes int64)
	faults      *faults.Injector
	tr          *trace.Tracer
	readSeq     atomic.Int64 // numbers traced block reads for span IDs
	// writeBufs holds the block buffers of writers that are done: a
	// Writer takes one at its first Write and gives it back when it ends,
	// so a file written after another makes no buffer.
	writeBufs *par.List[[]byte]

	mFailover    *metrics.Counter // hdfs.failover.reads
	mReplaced    *metrics.Counter // hdfs.write.replaced
	mLocalBytes  *metrics.Counter // hdfs.bytes.local
	mRemoteBytes *metrics.Counter // hdfs.bytes.remote
}

// Config controls filesystem geometry.
type Config struct {
	BlockSize   int64
	Replication int
	// Remote prices every remote block read, from the replica's node to
	// the reader's: the cluster passes its fabric's Transfer. Nil means
	// free remote reads (tests).
	Remote func(from, to transport.NodeID, bytes int64)
	// Substrate is the cluster's shared handle; the zero value is filled.
	// Under its injector reads fail over past dead replicas and writes
	// re-place blocks off dead nodes; its registry receives the hdfs.*
	// counters; its tracer records block-read spans.
	Substrate substrate.Handle
}

// New creates a filesystem over the given per-node disks.
func New(disks []storage.Disk, cfg Config) (*FileSystem, error) {
	if len(disks) == 0 {
		return nil, fmt.Errorf("hdfs: need at least one datanode")
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.Replication > len(disks) {
		cfg.Replication = len(disks)
	}
	cfg.Substrate.Fill()
	reg := cfg.Substrate.Metrics
	fs := &FileSystem{
		blockSize:    cfg.BlockSize,
		replication:  cfg.Replication,
		disks:        disks,
		files:        make(map[string]*fileMeta),
		charge:       cfg.Remote,
		faults:       cfg.Substrate.Faults,
		tr:           cfg.Substrate.Trace,
		writeBufs:    par.NewSlices[byte](0),
		mFailover:    reg.Counter("hdfs.failover.reads"),
		mReplaced:    reg.Counter("hdfs.write.replaced"),
		mLocalBytes:  reg.Counter("hdfs.bytes.local"),
		mRemoteBytes: reg.Counter("hdfs.bytes.remote"),
	}
	return fs, nil
}

// Buffers names the filesystem's list of writer block buffers.
func (fs *FileSystem) Buffers() par.Buffers { return par.Buffers{"write": fs.writeBufs.Stats} }

// BlockSize returns the filesystem block size.
func (fs *FileSystem) BlockSize() int64 { return fs.blockSize }

// NumNodes returns the number of datanodes.
func (fs *FileSystem) NumNodes() int { return len(fs.disks) }

func blockName(id string) string { return "hdfs/" + id }

// placeBlock chooses replica nodes: the preferred node first (if valid and
// its storage is alive), then round-robin over the remaining live nodes.
// The scan is bounded so a mostly-dead cluster returns a short replica set
// instead of spinning; the caller decides whether that is fatal.
func (fs *FileSystem) placeBlock(preferred transport.NodeID) []transport.NodeID {
	n := len(fs.disks)
	replicas := make([]transport.NodeID, 0, fs.replication)
	seen := make(map[transport.NodeID]bool)
	if preferred >= 0 && int(preferred) < n && !fs.faults.NodeDown(int(preferred)) {
		replicas = append(replicas, preferred)
		seen[preferred] = true
	}
	for scanned := 0; len(replicas) < fs.replication && scanned < n; scanned++ {
		cand := transport.NodeID(fs.nextNode % n)
		fs.nextNode++
		if !seen[cand] && !fs.faults.NodeDown(int(cand)) {
			replicas = append(replicas, cand)
			seen[cand] = true
		}
	}
	return replicas
}

// Writer streams data into a new file, cutting blocks at the block size.
type Writer struct {
	fs        *FileSystem
	meta      *fileMeta
	preferred transport.NodeID
	// block accumulates the block being written: taken from the
	// filesystem's list at the first Write and non-nil until it goes
	// back, it starts small when the list had none, never grows past the
	// block size, and is handed to appendBlock as it is.
	block     []byte
	closed    bool
	published bool
	err       error
}

// Create starts writing a new file. preferred is the "client" node whose
// local disk receives the first replica of every block (use -1 for pure
// round-robin placement). An existing file with the same name is replaced
// on Close.
func (fs *FileSystem) Create(name string, preferred transport.NodeID) *Writer {
	return &Writer{
		fs:        fs,
		meta:      &fileMeta{name: name},
		preferred: preferred,
	}
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("hdfs: write to closed file %q", w.meta.name)
	}
	if w.err != nil {
		return 0, w.err
	}
	n := len(p)
	size := int(w.fs.blockSize)
	for len(p) > 0 {
		if w.block == nil {
			w.block = w.fs.writeBufs.Get()
		}
		take := min(len(p), size-len(w.block))
		if need := len(w.block) + take; need > cap(w.block) {
			grown := make([]byte, len(w.block), min(max(need, 2*cap(w.block), 512), size))
			copy(grown, w.block)
			w.block = grown
		}
		w.block = append(w.block, p[:take]...)
		p = p[take:]
		if len(w.block) == size {
			if err := w.flushBlock(); err != nil {
				w.err = err
				w.release()
				return 0, err
			}
		}
	}
	return n, nil
}

// flushBlock stores the accumulated bytes as the file's next block; the
// next block reuses their storage, which appendBlock has copied to the
// replicas' disks before it returns.
func (w *Writer) flushBlock() error {
	data := w.block
	w.block = data[:0]
	return w.fs.appendBlock(w.meta, w.preferred, data)
}

// release gives the block buffer back to the filesystem's list. Every way
// a writer ends calls it; only the first call after a Write returns it.
func (w *Writer) release() {
	if w.block != nil {
		w.fs.writeBufs.Put(w.block)
		w.block = nil
	}
}

// writeReplica stores one replica of a block, removing any partially
// written file on failure (Close on an in-memory disk commits whatever was
// buffered, so a failed write would otherwise leak a partial block).
func (fs *FileSystem) writeReplica(node transport.NodeID, id string, data []byte) error {
	f, err := fs.disks[node].Create(blockName(id))
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = fs.disks[node].Remove(blockName(id))
		return werr
	}
	return nil
}

// replacementNode picks a live node outside tried for pipeline recovery.
func (fs *FileSystem) replacementNode(tried map[transport.NodeID]bool) (transport.NodeID, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := len(fs.disks)
	for scanned := 0; scanned < n; scanned++ {
		cand := transport.NodeID(fs.nextNode % n)
		fs.nextNode++
		if !tried[cand] && !fs.faults.NodeDown(int(cand)) {
			return cand, true
		}
	}
	return -1, false
}

func (fs *FileSystem) appendBlock(meta *fileMeta, preferred transport.NodeID, data []byte) error {
	fs.mu.Lock()
	id := fmt.Sprintf("blk_%06d", fs.nextBlock)
	fs.nextBlock++
	replicas := fs.placeBlock(preferred)
	fs.mu.Unlock()
	if len(replicas) == 0 {
		return fmt.Errorf("hdfs: no live datanode for block %s", id)
	}

	written := make([]transport.NodeID, 0, len(replicas))
	tried := make(map[transport.NodeID]bool, len(replicas))
	for _, r := range replicas {
		tried[r] = true
	}
	for i := 0; i < len(replicas); i++ {
		node := replicas[i]
		err := fs.writeReplica(node, id, data)
		if err == nil {
			written = append(written, node)
			continue
		}
		// Datanode failed mid-write: re-place this replica on another live
		// node (Hadoop write-pipeline recovery).
		if alt, ok := fs.replacementNode(tried); ok {
			tried[alt] = true
			replicas[i] = alt
			fs.mReplaced.Inc()
			i--
			continue
		}
		for _, w := range written {
			_ = fs.disks[w].Remove(blockName(id))
		}
		return fmt.Errorf("hdfs: write block on node %d: %w", node, err)
	}
	meta.blocks = append(meta.blocks, Block{
		ID:       id,
		Offset:   meta.size,
		Size:     int64(len(data)),
		Replicas: replicas,
	})
	meta.size += int64(len(data))
	return nil
}

// Close flushes the final partial block and publishes the file. On error
// — whether from an earlier Write or the final flush — blocks already
// stored are removed from their replicas, so a failed write never leaks
// datanode space.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	defer w.release()
	if w.err != nil {
		w.discardBlocks()
		return w.err
	}
	if len(w.block) > 0 {
		if err := w.flushBlock(); err != nil {
			w.err = err
			w.discardBlocks()
			return err
		}
	}
	w.fs.mu.Lock()
	w.fs.files[w.meta.name] = w.meta
	w.fs.mu.Unlock()
	w.published = true
	return nil
}

// Abort discards the file without publishing it, removing any blocks
// already flushed. It is a no-op after a successful Close. Failed task
// attempts use it to roll back partial output.
func (w *Writer) Abort() {
	if w.published {
		return
	}
	if w.closed && w.err == nil {
		return
	}
	w.closed = true
	if w.err == nil {
		w.err = fmt.Errorf("hdfs: file %q aborted", w.meta.name)
	}
	w.release()
	w.discardBlocks()
}

// discardBlocks removes every block flushed so far from its replicas.
func (w *Writer) discardBlocks() {
	for _, b := range w.meta.blocks {
		for _, node := range b.Replicas {
			_ = w.fs.disks[node].Remove(blockName(b.ID))
		}
	}
	w.meta.blocks = nil
	w.meta.size = 0
}

// WriteFile writes data as a complete file.
func (fs *FileSystem) WriteFile(name string, data []byte, preferred transport.NodeID) error {
	w := fs.Create(name, preferred)
	if _, err := w.Write(data); err != nil {
		_ = w.Close()
		return err
	}
	return w.Close()
}

func (fs *FileSystem) lookup(name string) (*fileMeta, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[name]
	if !ok {
		return nil, &storage.ErrNotExist{Name: name}
	}
	return meta, nil
}

// Size returns a file's length in bytes.
func (fs *FileSystem) Size(name string) (int64, error) {
	meta, err := fs.lookup(name)
	if err != nil {
		return 0, err
	}
	return meta.size, nil
}

// Exists reports whether a file exists.
func (fs *FileSystem) Exists(name string) bool {
	_, err := fs.lookup(name)
	return err == nil
}

// List returns all file names with the given prefix, sorted.
func (fs *FileSystem) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var names []string
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Remove deletes a file and its blocks from all replicas.
func (fs *FileSystem) Remove(name string) error {
	fs.mu.Lock()
	meta, ok := fs.files[name]
	if ok {
		delete(fs.files, name)
	}
	fs.mu.Unlock()
	if !ok {
		return &storage.ErrNotExist{Name: name}
	}
	for _, b := range meta.blocks {
		for _, node := range b.Replicas {
			_ = fs.disks[node].Remove(blockName(b.ID))
		}
	}
	return nil
}

// Blocks returns the block layout of a file.
func (fs *FileSystem) Blocks(name string) ([]Block, error) {
	meta, err := fs.lookup(name)
	if err != nil {
		return nil, err
	}
	return append([]Block(nil), meta.blocks...), nil
}

// readReplica reads one whole replica of a block into dst, b.Size bytes
// the caller owns, opened and checked as openReplica does. A failed read
// may leave part of dst written.
func (fs *FileSystem) readReplica(src transport.NodeID, b Block, dst []byte) error {
	f, err := fs.openReplica(src, b, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := io.ReadFull(f, dst); err != nil {
		return fmt.Errorf("hdfs: read block %s on node %d: %w", b.ID, src, err)
	}
	return nil
}

// readBlock reads a block's bytes as observed from reader node at into
// dst, b.Size bytes the caller owns, and returns dst: candidates are tried
// in order — the local replica first, then the declared replica list —
// and a dead or failing replica fails over to the next one, which
// overwrites whatever the failed one left in dst (hdfs.failover.reads
// counts reads that did not succeed on their first choice). Remote reads
// charge the network. hdfs.bytes.local / hdfs.bytes.remote account where
// the bytes were served from, as observed by a node-resident reader.
func (fs *FileSystem) readBlock(b Block, at transport.NodeID, dst []byte) ([]byte, error) {
	return fs.traced(b, at, func() ([]byte, error) { return fs.readReplicas(b, at, dst) })
}

// traced runs one disk/network read of (part of) block b, under an
// hdfs-read span when tracing is on.
func (fs *FileSystem) traced(b Block, at transport.NodeID, read func() ([]byte, error)) ([]byte, error) {
	if !fs.tr.Enabled() {
		return read()
	}
	sp := fs.tr.Start(int(at), "",
		fmt.Sprintf("hdfs:%s:at%d:%d", b.ID, at, fs.readSeq.Add(1)), "hdfs-read", "disk")
	data, err := read()
	sp.EndBytes(int64(len(data)))
	return data, err
}

// candidates returns a block's replicas in the order a reader at node at
// tries them: its own replica first, then the declared list.
func candidates(b Block, at transport.NodeID) []transport.NodeID {
	// The replica list is already in candidate order unless `at` holds a
	// replica that is not listed first; skip the reorder allocation in the
	// common single-replica and local-first cases.
	for i, r := range b.Replicas {
		if r == at && i > 0 {
			reordered := make([]transport.NodeID, 0, len(b.Replicas))
			reordered = append(reordered, at)
			for _, o := range b.Replicas {
				if o != at {
					reordered = append(reordered, o)
				}
			}
			return reordered
		}
	}
	return b.Replicas
}

// served accounts n bytes of a block moved from replica node src to a
// reader at node at: the byte counters, and the fabric when they crossed it.
func (fs *FileSystem) served(src, at transport.NodeID, n int64) {
	switch {
	case src == at:
		fs.mLocalBytes.Add(n)
	case at >= 0:
		fs.mRemoteBytes.Add(n)
		if fs.charge != nil {
			fs.charge(src, at, n)
		}
	}
}

func (fs *FileSystem) readReplicas(b Block, at transport.NodeID, dst []byte) ([]byte, error) {
	var lastErr error
	for i, src := range candidates(b, at) {
		if err := fs.readReplica(src, b, dst); err != nil {
			lastErr = err
			continue
		}
		if i > 0 {
			fs.mFailover.Inc()
		}
		fs.served(src, at, int64(len(dst)))
		return dst, nil
	}
	return nil, fmt.Errorf("hdfs: block %s: no readable replica: %w", b.ID, lastErr)
}

// ReadFile reads the whole file as observed from node at (-1 for a
// location-less client). The returned slice is caller-owned: each block
// is read straight into its place in it.
func (fs *FileSystem) ReadFile(name string, at transport.NodeID) ([]byte, error) {
	meta, err := fs.lookup(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, meta.size)
	for _, b := range meta.blocks {
		if _, err := fs.readBlock(b, at, out[b.Offset:b.Offset+b.Size]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
