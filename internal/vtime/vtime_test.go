package vtime

import (
	"sync"
	"testing"
	"time"
)

// Two virtual runs issuing the same charges from racing goroutines must
// report identical modeled times: lane advances are sums of atomic
// adds, so scheduling order cannot leak into the result.
func TestVirtualDeterministicReplay(t *testing.T) {
	run := func() (time.Duration, [3]time.Duration) {
		v := NewVirtual(4)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					v.Charge(g%4, Disk, time.Duration(1+i%7)*time.Microsecond)
					v.Charge(g%4, Net, 500*time.Nanosecond)
					if i%50 == 0 {
						v.Charge(Driver, Startup, 20*time.Microsecond)
					}
				}
			}(g)
		}
		wg.Wait()
		return v.Elapsed(), [3]time.Duration{v.Busy(Disk), v.Busy(Net), v.Busy(Startup)}
	}
	e1, b1 := run()
	e2, b2 := run()
	if e1 != e2 {
		t.Fatalf("modeled elapsed differs across identical runs: %v vs %v", e1, e2)
	}
	if b1 != b2 {
		t.Fatalf("busy accounting differs across identical runs: %v vs %v", b1, b2)
	}
	if e1 == 0 || b1[0] == 0 || b1[1] == 0 || b1[2] == 0 {
		t.Fatalf("charges did not accumulate: elapsed %v busy %v", e1, b1)
	}
}

// Concurrent chargers under -race: totals must be exact, not
// approximately merged.
func TestConcurrentChargersExactTotals(t *testing.T) {
	const (
		nodes    = 3
		chargers = 16
		each     = 1000
		quantum  = time.Microsecond
	)
	v := NewVirtual(nodes)
	var wg sync.WaitGroup
	for g := 0; g < chargers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				v.Charge(g%nodes, Contention, quantum)
			}
		}(g)
	}
	wg.Wait()
	want := time.Duration(chargers*each) * quantum
	if got := v.Busy(Contention); got != want {
		t.Fatalf("busy(contention) = %v, want %v", got, want)
	}
	var lanes time.Duration
	for n := 0; n < nodes; n++ {
		lanes += v.NodeTime(n)
	}
	if lanes != want {
		t.Fatalf("summed node lanes = %v, want %v", lanes, want)
	}
	// chargers land on nodes round-robin, so the busiest lane carries
	// ceil(chargers/nodes) of them and elapsed = that lane's advance.
	busiest := time.Duration((chargers+nodes-1)/nodes*each) * quantum
	if got := v.Elapsed(); got != busiest {
		t.Fatalf("elapsed = %v, want %v", got, busiest)
	}
}

// The elapsed model: driver advance is serial with everything, node
// advance is the max over lanes, and Mark/Since measures intervals.
func TestElapsedModelAndMarks(t *testing.T) {
	v := NewVirtual(2)
	v.Charge(Driver, Startup, 10*time.Millisecond)
	v.Charge(0, Disk, 30*time.Millisecond)
	v.Charge(1, Disk, 40*time.Millisecond)
	if got, want := v.Elapsed(), 50*time.Millisecond; got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
	m := v.Mark()
	v.Charge(1, Net, 5*time.Millisecond)
	if got, want := v.Since(m), 5*time.Millisecond; got != want {
		t.Fatalf("since mark = %v, want %v", got, want)
	}
	if got, want := v.Elapsed(), 55*time.Millisecond; got != want {
		t.Fatalf("elapsed after mark = %v, want %v", got, want)
	}
	// The per-lane advances Since maximises over: the interval's, and
	// (from the zero Mark) the clock's whole life, driver lane excluded.
	if got := v.LanesSince(m); len(got) != 2 || got[0] != 0 || got[1] != 5*time.Millisecond {
		t.Fatalf("lanes since mark = %v, want [0 5ms]", got)
	}
	if got := v.LanesSince(Mark{}); len(got) != 2 || got[0] != 30*time.Millisecond || got[1] != 45*time.Millisecond {
		t.Fatalf("lanes since creation = %v, want [30ms 45ms]", got)
	}
}

// A real hold blocks node-attributed charges for the charged duration
// but never driver-attributed ones.
func TestRealHoldBlocksNodeChargesOnly(t *testing.T) {
	v := NewVirtual(1)
	v.SetRealHold(Startup, true)
	const d = 20 * time.Millisecond
	start := time.Now()
	v.Charge(0, Startup, d)
	if held := time.Since(start); held < d {
		t.Fatalf("node-attributed held charge returned after %v, want >= %v", held, d)
	}
	start = time.Now()
	v.Charge(Driver, Startup, 500*time.Millisecond)
	if held := time.Since(start); held > 100*time.Millisecond {
		t.Fatalf("driver-attributed charge blocked for %v; holds must not apply to the driver lane", held)
	}
	if got, want := v.Busy(Startup), 520*time.Millisecond; got != want {
		t.Fatalf("busy(startup) = %v, want %v", got, want)
	}
}

// The virtual clock must not sleep on ordinary charges.
func TestVirtualChargeDoesNotSleep(t *testing.T) {
	v := NewVirtual(2)
	start := time.Now()
	v.Charge(0, Disk, 2*time.Second)
	v.Charge(Driver, Net, 2*time.Second)
	if wall := time.Since(start); wall > 200*time.Millisecond {
		t.Fatalf("virtual charges took %v of wall time", wall)
	}
	if got, want := v.Elapsed(), 4*time.Second; got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

// RealClock.Charge sleeps like the pre-seam layers did.
func TestRealClockChargeSleeps(t *testing.T) {
	const d = 15 * time.Millisecond
	start := time.Now()
	Real().Charge(3, Disk, d)
	if got := time.Since(start); got < d {
		t.Fatalf("RealClock.Charge returned after %v, want >= %v", got, d)
	}
	// Non-positive durations return immediately.
	Real().Charge(0, Disk, -time.Second)
}

func TestResourceStrings(t *testing.T) {
	want := []string{"disk", "net", "cpu", "startup", "contention", "fault"}
	rs := Resources()
	if len(rs) != len(want) {
		t.Fatalf("Resources() has %d entries, want %d", len(rs), len(want))
	}
	for i, r := range rs {
		if r.String() != want[i] {
			t.Fatalf("resource %d = %q, want %q", i, r, want[i])
		}
	}
}
