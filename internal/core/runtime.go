package core

import (
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/hamr-go/hamr/internal/extsort"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/transport"
)

// Config is the per-node runtime's tuning: the pool size, the bin (the
// engine's scheduling quantum), flow control, the memory budget and the
// contention model. The zero value is usable: FillDefaults supplies
// sensible settings. The loader slots, the keys per reduce task and the
// partial-reduce stripes are constants: loaderSlots, reduceTaskKeys and
// partialStripes. What the runtime shares with the rest of the cluster —
// clock, tracer, fault injector, registry — is not tuning and
// arrives as a substrate.Handle.
type Config struct {
	// Workers is the size of each node's thread pool (the paper's cluster
	// used 32 threads per node).
	Workers int
	// BinSize is the maximum number of pairs per bin, the engine's
	// scheduling quantum.
	BinSize int
	// FlowControlWindow is the number of bins that may be outstanding per
	// edge per producing node before producers stall (§2). Zero disables
	// flow control (used by the ablation benchmark).
	FlowControlWindow int
	// MemoryBudget is each node's in-memory data budget in bytes; reduce
	// flowlets spill to local disk beyond it. Zero means unlimited. A
	// spilled value goes through the codec, which carries int64, float64
	// and string; any other type fails the job at its first spill.
	MemoryBudget int64
	// ContentionCost is the modeled cost of one contended shared-variable
	// update in a partial reduce (§5.2: "all threads atomically update
	// only one variable on each node... severe memory contention"). It is
	// charged per update *while holding the key's lock stripe*, so a key
	// space that collapses onto few stripes serializes into a real
	// bottleneck, while a wide key space overlaps across stripes and
	// barely notices. Flowlets with SerializeUpdates (the paper's
	// proposed fix) pay a tenth of it — a single writer does not fight
	// over the cache line. Zero disables the model.
	ContentionCost time.Duration
}

// FillDefaults replaces zero fields with defaults.
func (c *Config) FillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.BinSize <= 0 {
		c.BinSize = 512
	}
	if c.FlowControlWindow < 0 {
		c.FlowControlWindow = 0
	}
}

// Message kinds used on the transport.
const (
	msgBin      = "hamr.bin"
	msgAck      = "hamr.ack"
	msgComplete = "hamr.complete"
	msgFail     = "hamr.fail"
)

type ackMsg struct {
	Job  int64
	Edge int
}

type completeMsg struct {
	Job     int64
	Flowlet int
	Node    int
}

// failMsg relays a job's failure. The fabric hands the sender's error
// value over as it is, so errors.Is(err, ErrJobCanceled) and
// faults.IsInjected match on every node the abort reaches.
type failMsg struct {
	Job int64
	Err error
}

// NodeRuntime is the long-lived flowlet runtime on one node (Fig. 2): a
// worker pool, a bin queue fed by the network, and the per-job flowlet
// state. One NodeRuntime exists per simulated node; jobs come and go.
type NodeRuntime struct {
	id  int
	cfg Config
	// sub is the cluster's shared substrate: flowlet tasks consult its
	// injector at their start, before any side effect.
	sub substrate.Handle
	// net carries every bin, ack, completion marker and failure broadcast
	// the node sends, each handed straight to the fabric: nothing the
	// fabric counts or charges waits on a host timer.
	net      transport.Network
	disk     storage.Disk
	services map[string]any

	pool      *par.Pool
	loaderSem par.Semaphore

	// nodeLists are the node's free lists, taken from the depot and handed
	// back to it by the first Close.
	*nodeLists
	handBack sync.Once

	// binsDropped counts payloads the delivery handler could not route
	// (a payload of the wrong type, or a data bin for a job this node no
	// longer knows). Resolved once: handle runs on the delivery goroutine.
	binsDropped *metrics.Counter

	mu   sync.Mutex
	jobs map[int64]*jobNode
}

// NewNodeRuntime creates the runtime for node id over the shared substrate
// (a zero Handle is filled) and registers it on the network. services are
// node-local handles exposed to flowlets via Context.Service (e.g. "hdfs",
// "disk", "kvstore").
func NewNodeRuntime(id int, cfg Config, sub substrate.Handle, net transport.Network, disk storage.Disk, services map[string]any) (*NodeRuntime, error) {
	cfg.FillDefaults()
	sub.Fill()
	if services == nil {
		services = map[string]any{}
	}
	rt := &NodeRuntime{
		id:        id,
		cfg:       cfg,
		sub:       sub,
		net:       net,
		disk:      disk,
		services:  services,
		pool:      par.NewPool(cfg.Workers, cfg.Workers*64),
		loaderSem: par.NewSemaphore(loaderSlots),
		nodeLists: takeLists(id, cfg.BinSize),

		binsDropped: sub.Metrics.Counter("bins.dropped"),
	}
	rt.jobs = make(map[int64]*jobNode)
	if err := net.Register(transport.NodeID(id), rt.handle); err != nil {
		rt.Close()
		return nil, err
	}
	return rt, nil
}

// ID returns the node id.
func (rt *NodeRuntime) ID() int { return rt.id }

// Metrics returns the node's metrics registry.
func (rt *NodeRuntime) Metrics() *metrics.Registry { return rt.sub.Metrics }

// Disk returns the node's local disk.
func (rt *NodeRuntime) Disk() storage.Disk { return rt.disk }

// Service returns a node-local service handle.
func (rt *NodeRuntime) Service(name string) any { return rt.services[name] }

// nodeLists are one node's free lists. They outlive the runtime: Close
// files them in the depot, and the next runtime built for the same node
// with the same BinSize takes them, so a job on a fresh cluster finds the
// buffers the last one made.
type nodeLists struct {
	// bins is the free list every bin this node produces is drawn from and
	// returned to — by whichever node consumed it — across jobs.
	bins *par.List[*Bin]
	// chunks is the free list every reduce accumulator on this node
	// buffers its pairs in, across jobs: a job's accumulators return their
	// chunks when they are iterated, or when the job ends.
	chunks *par.List[[]kvRec]
	// prScratch is the free list of the partial-reduce fold's working
	// sets: one is out per worker folding a bin.
	prScratch *par.List[*prScratch]
	// batches is the free list of reduce batches: one is out per reduce
	// task in flight, and one more while finishReduce fills it.
	batches *par.List[[]reduceGroup]
}

// listsKey files a node's lists in the depot: bin slabs are BinSize
// pairs, and node i's lists go back to node i, whose share of a job's work
// a cluster with the same options repeats.
type listsKey struct{ node, binSize int }

// depot holds the lists of closed runtimes.
var depot par.Depot[listsKey, *nodeLists]

// takeLists returns node's lists from the depot, or new ones.
func takeLists(node, binSize int) *nodeLists {
	if l, ok := depot.Take(listsKey{node, binSize}); ok {
		return l
	}
	return &nodeLists{
		bins:      newBinList(binSize),
		chunks:    par.NewSlices[kvRec](extsort.DefaultChunkLen),
		prScratch: newPRScratchList(),
		batches:   par.NewSlices[reduceGroup](reduceTaskKeys),
	}
}

// Buffers names the node's free lists: bin slabs, reduce-accumulator
// chunks, partial-reduce scratch and reduce batches. Once every job on the
// node is over, each is home.
func (rt *NodeRuntime) Buffers() par.Buffers {
	return par.Buffers{
		"bins":            rt.bins.Stats,
		"acc-chunks":      rt.chunks.Stats,
		"partial-scratch": rt.prScratch.Stats,
		"reduce-batches":  rt.batches.Stats,
	}
}

// Close drains the worker pool and, the first time, hands the node's lists
// back to the depot if they are home; lists with an item still out are
// left to the GC. Once the node's jobs are over, only its pool still
// draws from them (other nodes only return its bins), so lists home after
// the drain stay home. The runtime must not be used afterwards.
func (rt *NodeRuntime) Close() error {
	err := rt.pool.Close()
	rt.handBack.Do(func() { depot.Give(listsKey{rt.id, rt.cfg.BinSize}, rt.nodeLists, rt.Buffers()) })
	return err
}

func (rt *NodeRuntime) job(id int64) *jobNode {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.jobs[id]
}

func (rt *NodeRuntime) registerJob(jn *jobNode) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.jobs[jn.jobID]; dup {
		return fmt.Errorf("core: job %d already registered on node %d", jn.jobID, rt.id)
	}
	rt.jobs[jn.jobID] = jn
	return nil
}

func (rt *NodeRuntime) unregisterJob(id int64) {
	rt.mu.Lock()
	delete(rt.jobs, id)
	rt.mu.Unlock()
}

// payloadOf returns msg's payload as the sender's own T, the one shape the
// fabric delivers a kind in.
func payloadOf[T any](msg transport.Message) (T, error) {
	p, ok := msg.Payload.(T)
	if !ok {
		return p, fmt.Errorf("payload is a %T", msg.Payload)
	}
	return p, nil
}

// handle is the transport handler: it runs on the node's delivery
// goroutine, so it only does bookkeeping and task submission.
func (rt *NodeRuntime) handle(msg transport.Message) {
	var err error
	switch msg.Kind {
	case msgBin:
		var bin *Bin
		if bin, err = payloadOf[*Bin](msg); err != nil {
			break
		}
		if jn := rt.job(bin.Job); jn != nil {
			jn.onBin(bin, false)
		} else {
			// A data bin for a job this node does not know means lost
			// data, not a benign protocol tail — make it visible.
			rt.binsDropped.Inc()
			log.Printf("core: node %d dropped bin for unknown job %d (edge %d, %d kvs, from node %d)",
				rt.id, bin.Job, bin.Edge, len(bin.KVs), bin.From)
			bin.release()
		}
	case msgAck:
		var ack ackMsg
		if ack, err = payloadOf[ackMsg](msg); err != nil {
			break
		}
		// Acks and completions for unknown jobs are normal teardown
		// stragglers (the job already finished or failed here); only a
		// payload of the wrong type is worth counting.
		if jn := rt.job(ack.Job); jn != nil {
			jn.onAck(ack.Edge)
		}
	case msgComplete:
		var cm completeMsg
		if cm, err = payloadOf[completeMsg](msg); err != nil {
			break
		}
		if jn := rt.job(cm.Job); jn != nil {
			jn.onComplete(cm.Flowlet, cm.Node)
		}
	case msgFail:
		var fm failMsg
		if fm, err = payloadOf[failMsg](msg); err != nil {
			break
		}
		if jn := rt.job(fm.Job); jn != nil {
			jn.abort(fm.Err, false)
		}
	}
	if err != nil {
		// Counted and logged: discarded without a trace, a payload that
		// does not match its kind makes a sender bug look like a hang.
		rt.binsDropped.Inc()
		log.Printf("core: node %d dropped mistyped %s message from node %d: %v",
			rt.id, msg.Kind, msg.From, err)
	}
}
