// Package vtime is the clock seam under every modeled cost in the
// simulation. Disk throughput and seeks (storage.CostModel), network
// latency and bandwidth (transport.CostModel, charged only by the fabric:
// its delivered messages and its Transfers), MapReduce job/task startup
// and injected fault delays all price a simulated action as a
// time.Duration; how that duration is *paid* is this package's concern.
//
// Two implementations are provided:
//
//   - RealClock (the default everywhere): a charge is paid by sleeping in
//     the charging goroutine, exactly as the layers did before the seam
//     existed. Runs are bit-identical to the pre-seam code.
//
//   - VirtualClock: a charge advances a per-node logical clock instead of
//     sleeping, with per-resource busy-time accounting on the side. Wall
//     time collapses to the real compute the run does, while modeled
//     elapsed seconds are still reported from the logical clocks — so the
//     Table 2 / Figure 3 shapes regenerate at memory speed without wall
//     benchmarking's sensitivity to host load.
//
// Charge attribution: node >= 0 names a worker node's lane; Driver (any
// negative node) names the serial job-coordinator lane. Modeled elapsed
// time over an interval is the driver lane's advance plus the maximum
// advance of any single node lane — driver work is serial with
// everything, node work overlaps across nodes. Within one node, charges
// add up.
package vtime

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Resource classifies what a charge models, for busy-time accounting.
type Resource uint8

// The modeled resources.
const (
	Disk       Resource = iota // local-disk seeks and throughput
	Net                        // fabric latency and bandwidth
	CPU                        // modeled compute; nothing charges it yet (the benchmark reports the lane)
	Startup                    // MapReduce job and task launch overhead
	Contention                 // contended shared-variable updates (§5.2)
	Fault                      // injected delays (stragglers, wire faults)
	numResources
)

var resourceNames = [numResources]string{"disk", "net", "cpu", "startup", "contention", "fault"}

// String implements fmt.Stringer.
func (r Resource) String() string {
	if int(r) < len(resourceNames) {
		return resourceNames[r]
	}
	return fmt.Sprintf("resource(%d)", int(r))
}

// Resources lists every resource, for reports.
func Resources() []Resource {
	out := make([]Resource, numResources)
	for i := range out {
		out[i] = Resource(i)
	}
	return out
}

// Driver is the node argument attributing a charge to the serial job
// coordinator rather than to any worker node.
const Driver = -1

// Clock is the seam every modeled delay is paid through.
type Clock interface {
	// Charge pays a modeled delay of d attributed to node's resource
	// res. node < 0 (Driver) attributes it to the serial driver lane.
	// RealClock sleeps for d; VirtualClock advances logical clocks.
	Charge(node int, res Resource, d time.Duration)
}

// RealClock pays charges with real sleeps — the default, bit-identical
// to the pre-seam behaviour of every layer.
type RealClock struct{}

// Real returns the shared real clock.
func Real() Clock { return RealClock{} }

// Charge implements Clock by sleeping in the caller's goroutine.
func (RealClock) Charge(_ int, _ Resource, d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// lane is one logical clock, padded to its own cache line so concurrent
// chargers on different nodes do not false-share.
type lane struct {
	ns atomic.Int64
	_  [56]byte
}

// VirtualClock advances per-node logical clocks instead of sleeping.
// Charges are atomic adds, so accumulated lane times are independent of
// goroutine scheduling order: two runs that issue the same charges
// report identical modeled times regardless of interleaving.
//
// Configure with SetRealHold before the run starts; it is a plain write
// read concurrently afterwards.
type VirtualClock struct {
	lanes []lane // [0] = driver, [1+i] = node i
	busy  [numResources]atomic.Int64
	hold  [numResources]bool
}

// NewVirtual creates a virtual clock for a cluster of nodes worker
// nodes (plus the implicit driver lane).
func NewVirtual(nodes int) *VirtualClock {
	if nodes < 0 {
		nodes = 0
	}
	return &VirtualClock{lanes: make([]lane, nodes+1)}
}

// SetRealHold makes node-attributed charges of res also block the
// charging goroutine for their real duration. The one intended user is
// the MapReduce task-startup charge, which is issued while the task's
// YARN container is held: the hold time is what makes sibling
// allocations overlap and spread across nodes, a scheduling-structural
// effect a purely logical charge cannot reproduce. Driver-attributed
// charges never hold. Call before the run starts.
func (v *VirtualClock) SetRealHold(res Resource, on bool) *VirtualClock {
	v.hold[res] = on
	return v
}

// Charge implements Clock by advancing logical clocks.
func (v *VirtualClock) Charge(node int, res Resource, d time.Duration) {
	if d <= 0 {
		return
	}
	li := 0
	if node >= 0 && node < len(v.lanes)-1 {
		li = node + 1
	}
	v.lanes[li].ns.Add(int64(d))
	v.busy[res].Add(int64(d))
	if v.hold[res] && node >= 0 {
		time.Sleep(d)
	}
}

// AddBusy records busy time for res without advancing any lane. It is
// for callers that model their own overlap — work whose full cost should
// appear in the per-resource accounting while only a caller-computed
// serialized fraction advances a lane (via AdvanceLane). The contention
// model uses the pair: charges overlap across lock stripes, so the lane
// advance is the hot stripe's serialized time, not the stripe sum.
func (v *VirtualClock) AddBusy(res Resource, d time.Duration) {
	if d > 0 {
		v.busy[res].Add(int64(d))
	}
}

// AdvanceLane advances one lane without busy accounting — the companion
// to AddBusy for callers modeling their own
// overlap. node < 0 advances the driver lane.
func (v *VirtualClock) AdvanceLane(node int, d time.Duration) {
	if d <= 0 {
		return
	}
	li := 0
	if node >= 0 && node < len(v.lanes)-1 {
		li = node + 1
	}
	v.lanes[li].ns.Add(int64(d))
}

// Mark is a snapshot of every lane, for interval measurement.
type Mark struct{ lanes []int64 }

// Mark snapshots the clock so Since can measure a run's advance.
func (v *VirtualClock) Mark() Mark {
	m := Mark{lanes: make([]int64, len(v.lanes))}
	for i := range v.lanes {
		m.lanes[i] = v.lanes[i].ns.Load()
	}
	return m
}

// Since reports the modeled elapsed time since m: the driver lane's
// advance plus the maximum advance of any single node lane. Driver work
// (job startup) is serial with everything;
// node work overlaps across nodes and the slowest node paces the run.
// Within a node charges accumulate, so intra-node overlap is
// deliberately not modeled — see DESIGN.md "Virtual
// time and the cost model" for what that approximation preserves.
func (v *VirtualClock) Since(m Mark) time.Duration {
	at := func(i int) int64 {
		if i < len(m.lanes) {
			return m.lanes[i]
		}
		return 0
	}
	driver := v.lanes[0].ns.Load() - at(0)
	var maxNode int64
	for i := 1; i < len(v.lanes); i++ {
		if d := v.lanes[i].ns.Load() - at(i); d > maxNode {
			maxNode = d
		}
	}
	return time.Duration(driver + maxNode)
}

// LanesSince reports every node lane's advance since m, in node order —
// the terms Since takes the maximum of. A run whose largest lane stands
// far above the mean is paced by one node while the others idle, which
// the per-resource Busy sums cannot show.
func (v *VirtualClock) LanesSince(m Mark) []time.Duration {
	out := make([]time.Duration, len(v.lanes)-1)
	for n := range out {
		d := v.lanes[n+1].ns.Load()
		if n+1 < len(m.lanes) {
			d -= m.lanes[n+1]
		}
		out[n] = time.Duration(d)
	}
	return out
}

// Elapsed is Since the clock's creation.
func (v *VirtualClock) Elapsed() time.Duration { return v.Since(Mark{}) }

// Busy reports the total charged time of one resource across all nodes
// — the per-resource accounting that lets a
// report decompose modeled elapsed time into disk, net, startup and so
// on.
func (v *VirtualClock) Busy(res Resource) time.Duration {
	return time.Duration(v.busy[res].Load())
}

// NodeTime reports one lane's accumulated logical time (node < 0 for
// the driver lane).
func (v *VirtualClock) NodeTime(node int) time.Duration {
	li := 0
	if node >= 0 && node < len(v.lanes)-1 {
		li = node + 1
	}
	return time.Duration(v.lanes[li].ns.Load())
}

var (
	_ Clock = RealClock{}
	_ Clock = (*VirtualClock)(nil)
)
