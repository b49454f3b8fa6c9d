// Package faults is a seeded, deterministic fault injector for the
// simulated cluster. Every injection decision is a pure hash of
// (seed, op, site, n): the same seed always kills the same task, declares
// the same replica dead and drops the same messages, regardless of
// goroutine scheduling. Sites are identity keys (task name + attempt,
// block id + node, file name + open sequence), so retries of the same work
// re-roll deterministically and a chaos run can be replayed bit-for-bit.
//
// The injector is nil-safe and starts disarmed: callers thread one
// *Injector through every layer and Arm() it only around the job under
// test, which keeps cluster setup (input loads) and test verification
// (output reads) fault-free. With a nil or disarmed injector every
// injection point is a single atomic load, and all modeled counters and
// output hashes stay bit-identical to a build without the injector.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/storage"
)

// ErrInjected matches (via errors.Is) every error produced by the
// injector, letting recovery code distinguish simulated faults from real
// bugs when deciding what is retryable.
var ErrInjected = errors.New("faults: injected failure")

// Error is an injected failure, carrying the operation and site it fired
// at. It matches ErrInjected under errors.Is.
type Error struct {
	Op   string // e.g. "disk.write", "hdfs.replica", "mr.map.kill"
	Site string // identity key of the faulted work, e.g. "map-00003#1"
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("faults: injected %s at %s", e.Op, e.Site) }

// Is implements errors.Is against ErrInjected.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// IsInjected reports whether err originates from an injector.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// IsRevocation reports whether err is an injected container revocation,
// which recovery treats as infrastructure churn rather than a task
// failure (it does not consume a task attempt).
func IsRevocation(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Op == "yarn.revoke"
}

// Config selects fault probabilities. All probabilities are per decision
// site in [0, 1]; zero disables that fault class. The zero Config injects
// nothing even when armed.
type Config struct {
	// Seed keys every decision; two injectors with the same Config fire at
	// identical sites.
	Seed int64

	// DiskRead / DiskWrite fail local-disk handles (per Create/Open).
	DiskRead  float64
	DiskWrite float64

	// DeadNodes marks that many datanodes (chosen by seed) as having dead
	// storage: reads of their replicas fail over and writes place blocks
	// elsewhere. Compute on those nodes is unaffected.
	DeadNodes int
	// DeadReplica additionally fails individual (block, node) replicas.
	DeadReplica float64

	// MsgDrop simulates a dropped fabric message. The reliable layer
	// retransmits, so delivery still happens; the message is charged one
	// extra transfer of modeled latency. MsgDup delivers a duplicate that
	// the sequence-numbered fabric dedups (again costing one transfer);
	// MsgDelay adds MsgDelayDur of extra latency.
	MsgDrop     float64
	MsgDup      float64
	MsgDelay    float64
	MsgDelayDur time.Duration

	// KillMap / KillReduce fail a task attempt at its mid-task checkpoint.
	KillMap    float64
	KillReduce float64

	// Straggle makes a map task's first attempt sleep StraggleDelay.
	Straggle      float64
	StraggleDelay time.Duration

	// Revoke reclaims a task's container mid-task (simulated preemption).
	Revoke float64

	// FlowletFire fails a HAMR fine-grain task (loader split, partial
	// stripe, reduce batch) at its start, before any side effects.
	FlowletFire float64

	// Armed starts the injector armed instead of waiting for Arm().
	Armed bool
}

// Injector makes seeded fault decisions and records what fired. All
// methods are safe on a nil receiver (no faults) and for concurrent use.
type Injector struct {
	cfg   Config
	nodes int
	dead  map[int]bool
	armed atomic.Bool

	reg       *metrics.Registry
	mInjected *metrics.Counter

	mu    sync.Mutex
	seq   map[string]uint64
	sites map[string]int
}

// New builds an injector for a cluster of numNodes nodes, recording fired
// faults into reg (nil for a private registry). The DeadNodes set is drawn
// from the seed at construction.
func New(cfg Config, numNodes int, reg *metrics.Registry) *Injector {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	in := &Injector{
		cfg:       cfg,
		nodes:     numNodes,
		dead:      make(map[int]bool),
		reg:       reg,
		mInjected: reg.Counter("faults.injected"),
		seq:       make(map[string]uint64),
		sites:     make(map[string]int),
	}
	if cfg.DeadNodes > 0 && numNodes > 0 {
		n := cfg.DeadNodes
		if n > numNodes {
			n = numNodes
		}
		perm := rand.New(rand.NewSource(cfg.Seed)).Perm(numNodes)
		for _, node := range perm[:n] {
			in.dead[node] = true
		}
	}
	in.armed.Store(cfg.Armed)
	return in
}

// Arm enables fault injection.
func (in *Injector) Arm() {
	if in != nil {
		in.armed.Store(true)
	}
}

// Disarm disables fault injection; decisions return "no fault" until the
// next Arm. The per-site sequence counters keep advancing only while
// armed, so a disarm/arm cycle does not shift later decisions.
func (in *Injector) Disarm() {
	if in != nil {
		in.armed.Store(false)
	}
}

// Armed reports whether faults are currently being injected.
func (in *Injector) Armed() bool { return in != nil && in.armed.Load() }

// Seed returns the configured seed.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.cfg.Seed
}

// Injected returns the total number of faults fired so far.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	return in.mInjected.Value()
}

// Sites returns the multiset of fired fault sites as sorted "op:site=n"
// strings. Two runs with the same seed produce identical slices.
func (in *Injector) Sites() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	out := make([]string, 0, len(in.sites))
	for k, n := range in.sites {
		out = append(out, fmt.Sprintf("%s=%d", k, n))
	}
	in.mu.Unlock()
	sort.Strings(out)
	return out
}

// DeadNodeSet returns the sorted datanode ids whose storage is dead.
func (in *Injector) DeadNodeSet() []int {
	if in == nil {
		return nil
	}
	out := make([]int, 0, len(in.dead))
	for n := range in.dead {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// --- decision machinery ---

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// siteHash is a pure function of (seed, op, site, n): FNV-1a over the
// fields followed by a splitmix64 finalize.
func siteHash(seed int64, op, site string, n uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	step := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	for i := 0; i < 8; i++ {
		step(byte(uint64(seed) >> (8 * i)))
	}
	for i := 0; i < len(op); i++ {
		step(op[i])
	}
	step(0)
	for i := 0; i < len(site); i++ {
		step(site[i])
	}
	step(0)
	for i := 0; i < 8; i++ {
		step(byte(n >> (8 * i)))
	}
	return mix64(h)
}

// chance is the pure decision: true with probability p for this identity.
func (in *Injector) chance(op, site string, n uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(siteHash(in.cfg.Seed, op, site, n)>>11)/(1<<53) < p
}

// record notes a fired fault.
func (in *Injector) record(op, site string) {
	in.mInjected.Inc()
	in.reg.Inc("faults." + op)
	in.mu.Lock()
	in.sites[op+":"+site]++
	in.mu.Unlock()
}

// nextSeq advances the auto-sequence for a key. Sequences only advance
// while armed (callers check Armed first), so the k-th armed event at a
// site always rolls the same dice.
func (in *Injector) nextSeq(key string) uint64 {
	in.mu.Lock()
	n := in.seq[key]
	in.seq[key] = n + 1
	in.mu.Unlock()
	return n
}

// normalizeSite strips a leading "job<digits>/" from a name. Job ids come
// from a process-global counter, so leaving them in site keys would make
// the second run of a seed roll different dice than the first.
func normalizeSite(name string) string {
	if len(name) < 4 || name[0] != 'j' || name[1] != 'o' || name[2] != 'b' {
		return name
	}
	i := 3
	for i < len(name) && name[i] >= '0' && name[i] <= '9' {
		i++
	}
	if i == 3 || i >= len(name) || name[i] != '/' {
		return name
	}
	return name[i+1:]
}

// --- task-level faults (MapReduce) ---

// killProb maps a kill op to its probability.
func (in *Injector) killProb(op string) float64 {
	if op == "mr.reduce.kill" {
		return in.cfg.KillReduce
	}
	return in.cfg.KillMap
}

func (in *Injector) killTask(op, site string, attempt int) error {
	if !in.Armed() || !in.chance(op, site, uint64(attempt), in.killProb(op)) {
		return nil
	}
	full := fmt.Sprintf("%s#%d", site, attempt)
	in.record(op, full)
	return &Error{Op: op, Site: full}
}

// KillMapTask fails the given map attempt if the dice say so. site must be
// job-relative (e.g. "map-00003").
func (in *Injector) KillMapTask(site string, attempt int) error {
	if in == nil {
		return nil
	}
	return in.killTask("mr.map.kill", site, attempt)
}

// KillReduceTask is KillMapTask for reduce attempts.
func (in *Injector) KillReduceTask(site string, attempt int) error {
	if in == nil {
		return nil
	}
	return in.killTask("mr.reduce.kill", site, attempt)
}

// WouldKillMap is the pure decision behind KillMapTask: no recording, no
// armed check. Tests use it to compute exact expected retry counts.
func (in *Injector) WouldKillMap(site string, attempt int) bool {
	return in != nil && in.chance("mr.map.kill", site, uint64(attempt), in.cfg.KillMap)
}

// WouldKillReduce is the pure decision behind KillReduceTask.
func (in *Injector) WouldKillReduce(site string, attempt int) bool {
	return in != nil && in.chance("mr.reduce.kill", site, uint64(attempt), in.cfg.KillReduce)
}

// Revoke decides whether the container running (site, attempt) is revoked
// mid-task.
func (in *Injector) Revoke(site string, attempt int) bool {
	if !in.Armed() || !in.chance("yarn.revoke", site, uint64(attempt), in.cfg.Revoke) {
		return false
	}
	in.record("yarn.revoke", fmt.Sprintf("%s#%d", site, attempt))
	return true
}

// WouldRevoke is the pure decision behind Revoke.
func (in *Injector) WouldRevoke(site string, attempt int) bool {
	return in != nil && in.chance("yarn.revoke", site, uint64(attempt), in.cfg.Revoke)
}

// Straggle reports whether the first attempt of site is a straggler and
// how long it stalls, recording the fault.
func (in *Injector) Straggle(site string) (time.Duration, bool) {
	if !in.Armed() || !in.chance("mr.straggle", site, 0, in.cfg.Straggle) {
		return 0, false
	}
	in.record("mr.straggle", site)
	return in.cfg.StraggleDelay, true
}

// --- flowlet faults (HAMR) ---

// FlowletFire fails a fine-grain flowlet task at its start (crash before
// side effects, so a re-fire never duplicates emitted data).
func (in *Injector) FlowletFire(site string, attempt int) error {
	if !in.Armed() || !in.chance("flowlet.fire", site, uint64(attempt), in.cfg.FlowletFire) {
		return nil
	}
	full := fmt.Sprintf("%s#%d", site, attempt)
	in.record("flowlet.fire", full)
	return &Error{Op: "flowlet.fire", Site: full}
}

// WouldFlowletFire is the pure decision behind FlowletFire.
func (in *Injector) WouldFlowletFire(site string, attempt int) bool {
	return in != nil && in.chance("flowlet.fire", site, uint64(attempt), in.cfg.FlowletFire)
}

// --- HDFS faults ---

// NodeDown reports whether a datanode's storage is in the dead set. It is
// a pure predicate (placement consults it per block; recording happens at
// read failover, where the fault is observable).
func (in *Injector) NodeDown(node int) bool {
	return in.Armed() && in.dead[node]
}

// ReplicaDown returns an injected error when the replica of block on node
// is unreadable, either because the node's storage is dead or because the
// per-replica dice fired.
func (in *Injector) ReplicaDown(node int, block string) error {
	if !in.Armed() {
		return nil
	}
	if !in.dead[node] && !in.chance("hdfs.replica", block, uint64(node), in.cfg.DeadReplica) {
		return nil
	}
	site := fmt.Sprintf("%s@%d", block, node)
	in.record("hdfs.replica", site)
	return &Error{Op: "hdfs.replica", Site: site}
}

// --- transport faults ---

// DeliveryFault is consulted once per message delivered to node's inbox
// and once per priced transfer to node (HDFS remote read, shuffle fetch,
// key-value store access), and returns the simulated wire mishaps: retrans
// counts dropped-then-retransmitted copies, dups counts duplicates the
// fabric dedups, extra is added latency. The fabric stays reliable —
// delivery happens exactly once — so outputs are unchanged while modeled
// time and the faults.net.* counters show the churn. Implements
// transport.FaultHook.
func (in *Injector) DeliveryFault(node int, size int64) (retrans, dups int, extra time.Duration) {
	if !in.Armed() {
		return 0, 0, 0
	}
	c := &in.cfg
	if c.MsgDrop <= 0 && c.MsgDup <= 0 && c.MsgDelay <= 0 {
		return 0, 0, 0
	}
	site := fmt.Sprintf("rx%d", node)
	n := in.nextSeq("net|" + site)
	if in.chance("net.drop", site, n, c.MsgDrop) {
		in.record("net.drop", site)
		retrans = 1
	}
	if in.chance("net.dup", site, n, c.MsgDup) {
		in.record("net.dup", site)
		dups = 1
	}
	if in.chance("net.delay", site, n, c.MsgDelay) {
		in.record("net.delay", site)
		extra = c.MsgDelayDur
	}
	return retrans, dups, extra
}

// --- disk faults ---

// DiskPolicy returns the storage.FaultPolicy for a node's local disk.
func (in *Injector) DiskPolicy(node int) *DiskPolicy {
	return &DiskPolicy{in: in, node: node}
}

// WrapDisk wraps d with this injector's fault policy for node. With a nil
// injector d is returned unchanged.
func (in *Injector) WrapDisk(node int, d storage.Disk) storage.Disk {
	if in == nil {
		return d
	}
	return storage.NewFaultyDisk(d, in.DiskPolicy(node))
}

// DiskPolicy implements storage.FaultPolicy with seeded decisions keyed by
// (node, job-relative file name, per-name open sequence).
type DiskPolicy struct {
	in   *Injector
	node int
}

func (p *DiskPolicy) fault(op, name string, prob float64) (int64, error) {
	in := p.in
	if !in.Armed() || prob <= 0 {
		return -1, nil
	}
	site := fmt.Sprintf("node%d:%s", p.node, normalizeSite(name))
	n := in.nextSeq(op + "|" + site)
	if !in.chance(op, site, n, prob) {
		return -1, nil
	}
	in.record(op, site)
	// Fail partway into the transfer so partial-file cleanup paths run.
	failAfter := int64(siteHash(in.cfg.Seed, op+"#off", site, n) % 4096)
	return failAfter, &Error{Op: op, Site: site}
}

// CreateFault implements storage.FaultPolicy.
func (p *DiskPolicy) CreateFault(name string) (int64, error) {
	return p.fault("disk.write", name, p.in.cfg.DiskWrite)
}

// OpenFault implements storage.FaultPolicy.
func (p *DiskPolicy) OpenFault(name string) (int64, error) {
	return p.fault("disk.read", name, p.in.cfg.DiskRead)
}

var _ storage.FaultPolicy = (*DiskPolicy)(nil)
