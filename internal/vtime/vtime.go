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
//     sleeping, in that node's cell for the charge's resource, so lane
//     times and per-resource busy times are sums of one ledger. Wall
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

// Scale multiplies a modeled delay by a cost model's TimeScale (0 treated
// as 1).
func Scale(d time.Duration, scale float64) time.Duration {
	if scale == 0 {
		scale = 1
	}
	return time.Duration(float64(d) * scale)
}

// ByteTime is the one rule that prices bytes: the time to move bytes at
// perSec bytes per second, scaled by a cost model's TimeScale (0 treated
// as 1) and truncated once; 0 when perSec is not positive. A link or disk
// that pays ByteTime(total+n) − ByteTime(total) for each n more bytes pays
// ByteTime of all its bytes in sum, however they were cut.
func ByteTime(bytes, perSec int64, scale float64) time.Duration {
	if perSec <= 0 {
		return 0
	}
	if scale == 0 {
		scale = 1
	}
	return time.Duration(float64(bytes) / float64(perSec) * float64(time.Second) * scale)
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

// row is one lane's ledger: a cell per resource, padded to its own cache
// line so concurrent chargers on different nodes do not false-share. The
// lane's logical time is the sum of its cells.
type row struct {
	ns [numResources]atomic.Int64
	_  [64 - 8*numResources]byte
}

// total is the lane's logical time.
func (r *row) total() int64 {
	var t int64
	for i := range r.ns {
		t += r.ns[i].Load()
	}
	return t
}

// VirtualClock advances per-node logical clocks instead of sleeping. It
// keeps one ledger — a row of per-resource cells for each lane — and
// Charge is its only write, so a lane's time and a resource's busy time
// are two sums over the same cells: the busy times of all resources add
// up to the lanes' times exactly. Charges are atomic adds, so
// accumulated times are independent of goroutine scheduling order: two
// runs that issue the same charges report identical modeled times
// regardless of interleaving.
//
// Configure with SetRealHold before the run starts; it is a plain write
// read concurrently afterwards.
type VirtualClock struct {
	rows []row // [0] = driver, [1+i] = node i
	hold [numResources]bool
}

// NewVirtual creates a virtual clock for a cluster of nodes worker
// nodes (plus the implicit driver lane).
func NewVirtual(nodes int) *VirtualClock {
	if nodes < 0 {
		nodes = 0
	}
	return &VirtualClock{rows: make([]row, nodes+1)}
}

// lane is node's row: a worker node's own, or the driver's for Driver
// (any negative node) and for a node the clock was not sized for.
func (v *VirtualClock) lane(node int) *row {
	if node >= 0 && node < len(v.rows)-1 {
		return &v.rows[node+1]
	}
	return &v.rows[0]
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

// Charge implements Clock by advancing node's lane in res's cell.
func (v *VirtualClock) Charge(node int, res Resource, d time.Duration) {
	if d <= 0 {
		return
	}
	v.lane(node).ns[res].Add(int64(d))
	if v.hold[res] && node >= 0 {
		time.Sleep(d)
	}
}

// Mark is a snapshot of every lane, for interval measurement.
type Mark struct{ lanes []int64 }

// Mark snapshots the clock so Since can measure a run's advance.
func (v *VirtualClock) Mark() Mark {
	m := Mark{lanes: make([]int64, len(v.rows))}
	for i := range v.rows {
		m.lanes[i] = v.rows[i].total()
	}
	return m
}

// advance is row i's advance since m.
func (v *VirtualClock) advance(m Mark, i int) int64 {
	d := v.rows[i].total()
	if i < len(m.lanes) {
		d -= m.lanes[i]
	}
	return d
}

// Since reports the modeled elapsed time since m: the driver lane's
// advance plus the maximum advance of any single node lane. Driver work
// (job startup) is serial with everything;
// node work overlaps across nodes and the slowest node paces the run.
// Within a node charges accumulate, so intra-node overlap is
// deliberately not modeled — see DESIGN.md §5 "internal/vtime" for what
// that approximation preserves.
func (v *VirtualClock) Since(m Mark) time.Duration {
	var maxNode int64
	for i := 1; i < len(v.rows); i++ {
		maxNode = max(maxNode, v.advance(m, i))
	}
	return time.Duration(v.advance(m, 0) + maxNode)
}

// LanesSince reports every node lane's advance since m, in node order —
// the terms Since takes the maximum of. A run whose largest lane stands
// far above the mean is paced by one node while the others idle, which
// the per-resource Busy sums cannot show.
func (v *VirtualClock) LanesSince(m Mark) []time.Duration {
	out := make([]time.Duration, len(v.rows)-1)
	for n := range out {
		out[n] = time.Duration(v.advance(m, n+1))
	}
	return out
}

// Elapsed is Since the clock's creation.
func (v *VirtualClock) Elapsed() time.Duration { return v.Since(Mark{}) }

// Busy reports the total charged time of one resource across all lanes
// — the per-resource accounting that lets a report decompose the lanes'
// time into disk, net, startup and so on.
func (v *VirtualClock) Busy(res Resource) time.Duration {
	var t int64
	for i := range v.rows {
		t += v.rows[i].ns[res].Load()
	}
	return time.Duration(t)
}

// NodeTime reports one lane's accumulated logical time (node < 0 for
// the driver lane).
func (v *VirtualClock) NodeTime(node int) time.Duration {
	return time.Duration(v.lane(node).total())
}

var (
	_ Clock = RealClock{}
	_ Clock = (*VirtualClock)(nil)
)
