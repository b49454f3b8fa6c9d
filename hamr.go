// Package hamr is a dataflow-based in-memory cluster computing engine, a
// from-scratch Go reproduction of the system described in "Design and
// Evaluation of a Novel DataFlow based BigData Solution" (PMAM/PPoPP
// 2015).
//
// A HAMR job is a directed acyclic graph of flowlets — Loader, Map,
// Reduce, PartialReduce and Sink stages. The whole graph is deployed on
// every node of the cluster; key-value pairs move between flowlets packed
// into bins; each node's runtime schedules flowlet tasks asynchronously as
// their input bins arrive, so downstream stages start processing before
// upstream stages finish. Intermediate data stays in memory (spilling to
// local disk only under memory pressure), flow control throttles
// producers whose consumers fall behind, and reduce stages form the only
// barriers.
//
// # Quick start
//
//	c, _ := hamr.NewCluster(hamr.ClusterOptions{NumNodes: 4})
//	defer c.Close()
//
//	g := hamr.NewGraph("wordcount")
//	sink := hamr.NewCollectSink()
//	ld, _ := g.AddLoader("load", myLoader)
//	mp, _ := g.AddMap("split", splitWords{})
//	pr, _ := g.AddPartialReduce("count", sumCounts{})
//	sk, _ := g.AddSink("out", sink)
//	g.Connect(ld, mp)
//	g.Connect(mp, pr)
//	g.Connect(pr, sk)
//
//	res, err := c.Run(g)
//
// # Cancellation
//
// RunContext is Run with a context: canceling ctx aborts the job on every
// node through the engine's failure path. Errors are typed sentinels
// matched with errors.Is, and survive being relayed across nodes by that
// abort broadcast:
//
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	res, err := c.RunContext(ctx, g)
//	if errors.Is(err, hamr.ErrJobCanceled) { /* ctx expired or canceled */ }
//
// The package also ships the full evaluation substrate used to reproduce
// the paper's experiments — a simulated commodity cluster with cost-model
// disks and network, a simulated HDFS, a YARN-style scheduler and a
// Hadoop-faithful MapReduce baseline — under internal/, driven by
// cmd/hamrbench over the workload table in internal/apps.
package hamr

import (
	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/kvstore"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/transport"
)

// Core data-plane types.
type (
	// KV is a key-value pair, the unit of data flowing through a graph.
	KV = core.KV
	// Context is passed to user flowlet code for emitting pairs and
	// inspecting the node environment.
	Context = core.Context
	// Loader pulls input data: Plan enumerates splits on the driver, Load
	// runs per split on its assigned node.
	Loader = core.Loader
	// Mapper transforms one pair at a time.
	Mapper = core.Mapper
	// Reducer processes one fully grouped key after all upstreams
	// complete.
	Reducer = core.Reducer
	// PartialReducer folds arriving values immediately (commutative,
	// associative operations) and emits on completion.
	PartialReducer = core.PartialReducer
	// Sink receives job output.
	Sink = core.Sink
	// Split is one unit of loader input.
	Split = core.Split
	// Env is the driver-side environment for Loader.Plan.
	Env = core.Env
	// Graph is a DAG of flowlets submitted as one job.
	Graph = core.Graph
	// EdgeOption configures a Connect edge.
	EdgeOption = core.EdgeOption
	// Routing selects how an edge moves pairs between nodes.
	Routing = core.Routing
	// Partitioner maps keys to nodes.
	Partitioner = core.Partitioner
	// EngineConfig tunes the per-node runtime: workers, bin size, flow
	// control window, memory budget and the modeled contention cost. It
	// holds tuning values only: the clock and tracer a cluster runs on are
	// ClusterOptions fields.
	EngineConfig = core.Config
	// JobResult reports a completed job.
	JobResult = core.JobResult
	// CollectSink gathers output pairs in memory.
	CollectSink = core.CollectSink
	// CountSink counts output pairs without retaining them.
	CountSink = core.CountSink
	// FileSink writes formatted pairs to one writer per node.
	FileSink = core.FileSink
	// FuncSink adapts a function to Sink.
	FuncSink = core.FuncSink
)

// Edge routing modes.
const (
	// RouteShuffle partitions pairs by key hash across all nodes.
	RouteShuffle = core.RouteShuffle
	// RouteLocal keeps pairs on the producing node.
	RouteLocal = core.RouteLocal
	// RouteBroadcast copies every pair to all nodes.
	RouteBroadcast = core.RouteBroadcast
)

// NewGraph creates an empty job graph.
func NewGraph(name string) *Graph { return core.NewGraph(name) }

// NewCollectSink returns an in-memory output collector.
func NewCollectSink() *CollectSink { return core.NewCollectSink() }

// NewCountSink returns a counting sink.
func NewCountSink() *CountSink { return core.NewCountSink() }

// WithRouting overrides an edge's routing mode.
func WithRouting(r Routing) EdgeOption { return core.WithRouting(r) }

// WithPartitioner overrides an edge's partitioner.
func WithPartitioner(p Partitioner) EdgeOption { return core.WithPartitioner(p) }

// HashPartition is the default key partitioner.
func HashPartition(key string, n int) int { return core.HashPartition(key, n) }

// RegisterValue lets KV values of v's type be spilled and shuffled as
// bytes. Values of type nil, bool, int (read back as int64), int64,
// float64, string, []byte, []float64, []int64, []int, []string and
// map[string]int64 need no registration; any other type must implement
// encoding.BinaryMarshaler, and encoding.BinaryUnmarshaler on its pointer,
// and be registered before the first job — RegisterValue panics if the
// methods are missing, and an unregistered type fails the job at its first
// encode with an error naming the type.
func RegisterValue(v any) { core.RegisterValue(v) }

// Cluster is a running HAMR cluster: N simulated nodes, each with a
// flowlet runtime, local disk and services (HDFS, kv-store), joined by a
// message fabric.
type Cluster = cluster.Cluster

// ClusterOptions configures NewCluster.
type ClusterOptions = cluster.Options

// DiskModel and NetModel are cost models for the simulated local disks
// and network fabric.
type (
	DiskModel = storage.CostModel
	NetModel  = transport.CostModel
)

// SATA3 returns a disk cost model resembling a SATA-III local disk.
func SATA3() DiskModel { return storage.SATA3() }

// FDRInfiniBand returns a network cost model resembling 4x FDR InfiniBand.
func FDRInfiniBand() NetModel { return transport.FDRInfiniBand() }

// GigabitEthernet returns a commodity 1 GbE network cost model.
func GigabitEthernet() NetModel { return transport.GigabitEthernet() }

// NewCluster builds and starts a cluster.
func NewCluster(opts ClusterOptions) (*Cluster, error) { return cluster.New(opts) }

// Typed sentinels for the job path; match with errors.Is.
var (
	// ErrJobCanceled reports a job stopped by a canceled or expired
	// context (Cluster.RunContext).
	ErrJobCanceled = core.ErrJobCanceled
	// ErrNoNodes reports a run over zero node runtimes.
	ErrNoNodes = core.ErrNoNodes
	// ErrGraphInvalid wraps graph validation failures.
	ErrGraphInvalid = core.ErrGraphInvalid
)

// Service names available through Context.Service on every node.
const (
	// ServiceHDFS is the simulated HDFS (*hdfs.FileSystem).
	ServiceHDFS = cluster.ServiceHDFS
	// ServiceDisk is the node-local disk (storage.Disk).
	ServiceDisk = cluster.ServiceDisk
	// ServiceKVStore is the distributed key-value store (*KVStore).
	ServiceKVStore = cluster.ServiceKVStore
)

// KVStore is the distributed in-memory key-value store deployed on every
// cluster (node-sharded tables; see Cluster.Store). It backs iterative
// jobs that keep state in memory between graphs — e.g. PageRank adjacency
// lists — the in-memory multi-phase pattern of the paper's §3.1/§3.2.
type KVStore = kvstore.Store

// KVTable is one namespace of the key-value store.
type KVTable = kvstore.Table

// StoreService extracts the key-value store from a flowlet context.
func StoreService(ctx Context) (*KVStore, error) { return hamrapps.Store(ctx) }
