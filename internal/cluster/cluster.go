// Package cluster assembles the simulated commodity cluster the paper's
// evaluation ran on (Table 1): N nodes, each with a flowlet runtime, a
// worker pool, and a cost-modeled local disk, joined by a cost-modeled
// network fabric, with a simulated HDFS, a YARN scheduler and the
// distributed key-value store deployed on top.
//
// Both engines run over the same Cluster: the HAMR engine through Run, the
// MapReduce baseline through the handles exposed by FS, Disks, Yarn, Net
// and Substrate — so a comparison between them reflects engine design, not
// substrate differences. Every byte that crosses nodes is priced by the one
// fabric: bins as delivered messages, and HDFS remote reads, shuffle
// fetches and key-value store access as its Transfers.
package cluster

import (
	"context"
	"fmt"
	"io"
	"sync"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/kvstore"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/par"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
	"github.com/hamr-go/hamr/internal/vtime"
	"github.com/hamr-go/hamr/internal/yarn"
)

// Service names installed on every node runtime.
const (
	ServiceHDFS    = "hdfs"
	ServiceDisk    = "disk"
	ServiceKVStore = "kvstore"
)

// Options configures a simulated cluster.
type Options struct {
	// NumNodes is the number of worker nodes (the paper used 15 workers).
	NumNodes int
	// Core configures the per-node flowlet runtime.
	Core core.Config
	// DiskModel, if non-nil, charges modeled delays for local disk IO.
	DiskModel *storage.CostModel
	// NetModel, if non-nil, charges modeled delays for network transfer.
	NetModel *transport.CostModel
	// DiskCapacity bounds each local disk in bytes (0 = unlimited).
	DiskCapacity int64
	// HDFSBlockSize and HDFSReplication configure the simulated HDFS.
	HDFSBlockSize   int64
	HDFSReplication int
	// YarnMemMB is each node's schedulable memory for the YARN scheduler.
	YarnMemMB int
	// Faults, if non-nil, puts a seeded fault injector in the substrate
	// handle: local disks, HDFS replica reads, the message fabric and (via
	// the engines) task execution consult it. A nil Faults leaves every hot
	// path untouched — no wrapper disks, no fabric hook.
	Faults *faults.Config
	// Clock pays every modeled delay in the cluster — disk, network,
	// contention, startup, stragglers. It is the substrate handle's clock,
	// so both engines and every layer under them charge the same one. Nil defaults to vtime.Real(): plain sleeps. Install a
	// *vtime.VirtualClock to run the same workload without wall sleeps
	// while modeled elapsed time accrues on per-node logical clocks.
	Clock vtime.Clock
	// Trace, if non-nil, records per-task spans and instant events across
	// every instrumented layer (engines, transport, HDFS, YARN). Nil — the
	// default — leaves every hot path untouched: all recorder methods are
	// nil-safe no-ops and no IDs are built.
	Trace *trace.Tracer
}

// Cluster is a running simulated cluster.
type Cluster struct {
	opts Options
	// sub is the shared substrate: New builds it once and HDFS, the node
	// runtimes and the MapReduce engine (via Substrate) take it whole.
	sub   substrate.Handle
	net   *transport.InMemNetwork
	disks []storage.Disk
	fs    *hdfs.FileSystem
	store *kvstore.Store
	sched *yarn.Scheduler
	nodes []*core.NodeRuntime
	// mem is each node's in-memory disk, under its fault and cost
	// wrappers: its page lists are the node's.
	mem []*storage.MemDisk

	mu      sync.Mutex
	engines []par.Buffers // the lists of engines built over the cluster

	closeOnce sync.Once
}

// diskKey files a node's disk in the depot: node i's disk goes back to
// node i, under the capacity it was made with.
type diskKey struct {
	node     int
	capacity int64
}

// disks holds the empty disks of closed clusters, with their pages.
var disks par.Depot[diskKey, *storage.MemDisk]

// takeDisk returns node's disk of the given capacity from the depot, or a
// new one.
func takeDisk(node int, capacity int64) *storage.MemDisk {
	if d, ok := disks.Take(diskKey{node, capacity}); ok {
		return d
	}
	return storage.NewMemDisk(capacity)
}

// New builds and starts a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.NumNodes <= 0 {
		opts.NumNodes = 1
	}
	if opts.YarnMemMB <= 0 {
		opts.YarnMemMB = 4096
	}
	opts.Core.FillDefaults()
	var netModel transport.CostModel
	if opts.NetModel != nil {
		netModel = *opts.NetModel
	}

	sub := substrate.Handle{Clock: opts.Clock, Trace: opts.Trace}
	sub.Fill()
	reg := sub.Metrics
	env := transport.Env{Clock: sub.Clock, Trace: sub.Trace}
	if opts.Faults != nil {
		sub.Faults = faults.New(*opts.Faults, opts.NumNodes, reg)
		env.Faults = sub.Faults
	}

	c := &Cluster{opts: opts, sub: sub}
	c.net = transport.NewInMemNetwork(netModel, reg)
	c.net.Use(env)

	c.disks = make([]storage.Disk, opts.NumNodes)
	c.mem = make([]*storage.MemDisk, opts.NumNodes)
	for i := range c.disks {
		c.mem[i] = takeDisk(i, opts.DiskCapacity)
		d := sub.Faults.WrapDisk(i, c.mem[i])
		if opts.DiskModel != nil {
			cd := storage.NewCostDisk(d, *opts.DiskModel, reg)
			cd.SetClock(sub.Clock, i)
			d = cd
		}
		c.disks[i] = d
	}

	fs, err := hdfs.New(c.disks, hdfs.Config{
		BlockSize:   opts.HDFSBlockSize,
		Replication: opts.HDFSReplication,
		Remote:      c.net.Transfer,
		Substrate:   sub,
	})
	if err != nil {
		return nil, err
	}
	c.fs = fs
	c.store = kvstore.New(opts.NumNodes, c.net.Transfer)
	c.sched = yarn.NewScheduler(opts.NumNodes, opts.YarnMemMB)
	c.sched.SetTracer(sub.Trace)

	c.nodes = make([]*core.NodeRuntime, opts.NumNodes)
	for i := 0; i < opts.NumNodes; i++ {
		services := map[string]any{
			ServiceHDFS:    c.fs,
			ServiceDisk:    c.disks[i],
			ServiceKVStore: c.store,
		}
		rt, err := core.NewNodeRuntime(i, opts.Core, sub, c.net, c.disks[i], services)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster: node %d: %w", i, err)
		}
		c.nodes[i] = rt
	}
	return c, nil
}

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return c.opts.NumNodes }

// FS returns the simulated HDFS.
func (c *Cluster) FS() *hdfs.FileSystem { return c.fs }

// Store returns the distributed key-value store.
func (c *Cluster) Store() *kvstore.Store { return c.store }

// Yarn returns the YARN-style container scheduler.
func (c *Cluster) Yarn() *yarn.Scheduler { return c.sched }

// Disks returns the per-node local disks.
func (c *Cluster) Disks() []storage.Disk { return c.disks }

// Disk returns one node's local disk.
func (c *Cluster) Disk(node int) storage.Disk { return c.disks[node] }

// Nodes returns the per-node flowlet runtimes.
func (c *Cluster) Nodes() []*core.NodeRuntime { return c.nodes }

// Net returns the message fabric. The MapReduce baseline pays its shuffle
// fetches through its Transfer, on the ingress that prices bins.
func (c *Cluster) Net() *transport.InMemNetwork { return c.net }

// Metrics returns the shared cluster metrics registry.
func (c *Cluster) Metrics() *metrics.Registry { return c.sub.Metrics }

// Substrate returns the handle New built: the clock every modeled delay is
// paid through, the tracer and injector (nil when off; every method of both
// is nil-safe) and the registry. The MapReduce baseline takes it from here,
// so both engines pay the same bytes and seconds.
func (c *Cluster) Substrate() substrate.Handle { return c.sub }

// AddBuffers adds lists for Buffers to gather besides the nodes' own:
// the MapReduce baseline adds its spill scratch when it is built.
func (c *Cluster) AddBuffers(b par.Buffers) {
	c.mu.Lock()
	c.engines = append(c.engines, b)
	c.mu.Unlock()
}

// Buffers gathers every free list the cluster's nodes own — each runtime's
// bins, accumulator chunks and partial-reduce scratch, each disk's page
// classes, HDFS's read and write block buffers and the lists of every
// engine built over the cluster (AddBuffers) — under names that say whose
// each is. Once the cluster is idle and its disks are empty,
// Buffers().Home() is nil.
func (c *Cluster) Buffers() par.Buffers {
	all := par.Buffers{}
	for i, rt := range c.nodes {
		all.Add(fmt.Sprintf("node%d/", i), rt.Buffers())
		all.Add(fmt.Sprintf("disk%d/", i), c.mem[i].Buffers())
	}
	all.Add("hdfs/", c.fs.Buffers())
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, b := range c.engines {
		all.Add(fmt.Sprintf("engine%d/", i), b)
	}
	return all
}

// jobEnv builds the execution environment handed to every job.
func (c *Cluster) jobEnv() *core.Env {
	return &core.Env{
		NumNodes: c.opts.NumNodes,
		Services: map[string]any{
			ServiceHDFS:    c.fs,
			ServiceKVStore: c.store,
		},
	}
}

// RunContext executes a flowlet graph on the cluster and blocks until it
// completes. A nil or malformed graph fails with core.ErrGraphInvalid.
// Canceling ctx aborts the job through the engine's cross-node failure
// path, and the returned error then matches core.ErrJobCanceled; a ctx
// already canceled starts nothing.
//
// Before returning, RunContext drains the message fabric: delivery runs on
// per-inbox goroutines, so the job's trailing completion messages may still
// be charging modeled network time to receiver lanes after Wait. Draining
// makes the return a true barrier, so virtual-clock readings taken after it
// are the same on every run.
func (c *Cluster) RunContext(ctx context.Context, g *core.Graph) (*core.JobResult, error) {
	if ctx.Err() != nil {
		return nil, fmt.Errorf("cluster: %w: %v", core.ErrJobCanceled, context.Cause(ctx))
	}
	j, err := core.NewJob(g, c.nodes, c.jobEnv())
	if err != nil {
		return nil, err
	}
	j.Start()
	aborted := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(aborted)
		j.Abort(fmt.Errorf("cluster: job %q: %w: %v", g.Name, core.ErrJobCanceled, context.Cause(ctx)))
	})
	res, err := j.Wait()
	// A watcher already running must finish before the drain, so a cancel
	// that lands after RunContext returns can send nothing.
	if !stop() {
		<-aborted
	}
	c.net.Quiesce()
	return res, err
}

// Run executes a flowlet graph on the cluster and waits for completion:
// RunContext with a background context.
func (c *Cluster) Run(g *core.Graph) (*core.JobResult, error) {
	return c.RunContext(context.Background(), g)
}

// WriteLocalText writes a text file onto one node's local disk (the
// paper's HAMR deployment reads input "distributed between the local disks
// of each node", §5.1).
func (c *Cluster) WriteLocalText(node int, name string, data []byte) error {
	f, err := c.disks[node].Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadLocalText reads a whole file from one node's local disk.
func (c *Cluster) ReadLocalText(node int, name string) ([]byte, error) {
	f, err := c.disks[node].Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Close shuts down the runtimes, the scheduler and the fabric, and hands
// the nodes' buffers on to the next cluster: it empties the disks, waits
// for the fabric to drain, closes each runtime (which drains its worker
// pool, then files the node's free lists in the depot) and then files each
// disk, pages and all. Only sets whose lists are home are filed; the rest
// go to the GC. Call it once every Run and RunContext on the cluster has
// returned; the cluster must not be used afterwards. A second Close does
// nothing.
func (c *Cluster) Close() { c.closeOnce.Do(c.close) }

func (c *Cluster) close() {
	for _, d := range c.mem {
		d.Empty()
	}
	if c.net != nil {
		c.net.Quiesce()
	}
	for _, rt := range c.nodes {
		if rt != nil {
			rt.Close()
		}
	}
	if c.sched != nil {
		c.sched.Close()
	}
	if c.net != nil {
		c.net.Close()
	}
	for i, d := range c.mem {
		disks.Give(diskKey{i, c.opts.DiskCapacity}, d, d.Buffers())
	}
}
