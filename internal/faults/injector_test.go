package faults

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/storage"
)

func TestNilInjectorIsSafeAndInert(t *testing.T) {
	var in *Injector
	in.Arm()
	in.Disarm()
	if in.Armed() {
		t.Fatal("nil injector reports armed")
	}
	if in.Seed() != 0 || in.Injected() != 0 || in.Sites() != nil || in.DeadNodeSet() != nil {
		t.Fatal("nil injector reports state")
	}
	if err := in.KillMapTask("map-00000", 0); err != nil {
		t.Fatal(err)
	}
	if err := in.KillReduceTask("reduce-00000", 0); err != nil {
		t.Fatal(err)
	}
	if in.WouldKillMap("map-00000", 0) || in.WouldKillReduce("reduce-00000", 0) {
		t.Fatal("nil injector predicts kills")
	}
	if in.Revoke("map-00000", 0) || in.WouldRevoke("map-00000", 0) {
		t.Fatal("nil injector revokes")
	}
	if _, ok := in.Straggle("map-00000"); ok {
		t.Fatal("nil injector straggles")
	}
	if err := in.FlowletFire("split:x:0:0", 0); err != nil || in.WouldFlowletFire("split:x:0:0", 0) {
		t.Fatal("nil injector fires")
	}
	if in.NodeDown(0) {
		t.Fatal("nil injector declares nodes down")
	}
	if err := in.ReplicaDown(0, "blk_0"); err != nil {
		t.Fatal(err)
	}
	if r, d, e := in.DeliveryFault(0, 100); r != 0 || d != 0 || e != 0 {
		t.Fatal("nil injector injects delivery faults")
	}
	mem := storage.NewMemDisk(0)
	if got := in.WrapDisk(0, mem); got != storage.Disk(mem) {
		t.Fatal("nil injector should not wrap disks")
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := New(Config{Seed: 7, Armed: true}, 4, nil)
	for i := 0; i < 100; i++ {
		if err := in.KillMapTask("map-00000", i); err != nil {
			t.Fatal(err)
		}
		if r, d, e := in.DeliveryFault(i%4, 100); r != 0 || d != 0 || e != 0 {
			t.Fatal("zero config injected a delivery fault")
		}
	}
	if in.Injected() != 0 {
		t.Fatalf("injected = %d", in.Injected())
	}
}

func TestDecisionsArePureFunctionsOfSeed(t *testing.T) {
	cfg := Config{
		Seed: 42, KillMap: 0.4, KillReduce: 0.4, Revoke: 0.3,
		Straggle: 0.3, FlowletFire: 0.3, DeadReplica: 0.3, DeadNodes: 2,
	}
	a := New(cfg, 8, nil)
	b := New(cfg, 8, nil)
	a.Arm()
	b.Arm()
	if !reflect.DeepEqual(a.DeadNodeSet(), b.DeadNodeSet()) {
		t.Fatalf("dead sets differ: %v vs %v", a.DeadNodeSet(), b.DeadNodeSet())
	}
	if len(a.DeadNodeSet()) != 2 {
		t.Fatalf("dead set = %v", a.DeadNodeSet())
	}
	sites := []string{"map-00000", "map-00001", "map-00017", "reduce-00003"}
	for _, s := range sites {
		for att := 0; att < 6; att++ {
			if a.WouldKillMap(s, att) != b.WouldKillMap(s, att) ||
				a.WouldKillReduce(s, att) != b.WouldKillReduce(s, att) ||
				a.WouldRevoke(s, att) != b.WouldRevoke(s, att) ||
				a.WouldFlowletFire(s, att) != b.WouldFlowletFire(s, att) {
				t.Fatalf("same-seed decisions diverge at %s#%d", s, att)
			}
		}
		da, oka := a.Straggle(s)
		db, okb := b.Straggle(s)
		if da != db || oka != okb {
			t.Fatalf("straggle decision diverges at %s", s)
		}
	}
	for node := 0; node < 8; node++ {
		for blk := 0; blk < 10; blk++ {
			id := blockID(blk)
			if ea, eb := a.ReplicaDown(node, id), b.ReplicaDown(node, id); !reflect.DeepEqual(ea, eb) {
				t.Fatalf("replica decision diverges at %s@%d", id, node)
			}
		}
	}

	// A different seed flips at least one decision across a modest grid.
	other := New(Config{Seed: 43, KillMap: 0.4}, 8, nil)
	diverged := false
	for i := 0; i < 64 && !diverged; i++ {
		s := taskSite(i)
		diverged = a.WouldKillMap(s, 0) != other.WouldKillMap(s, 0)
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 agree on every kill decision")
	}
}

func blockID(n int) string  { return "blk_" + string(rune('a'+n)) }
func taskSite(n int) string { return "map-" + string(rune('a'+n%26)) + string(rune('a'+n/26)) }

func TestArmGateAndSequenceStability(t *testing.T) {
	cfg := Config{Seed: 5, KillMap: 1, MsgDrop: 0.5}
	in := New(cfg, 2, nil)
	// Disarmed: certain kills do not fire and delivery sequences do not
	// advance.
	if err := in.KillMapTask("map-00000", 0); err != nil {
		t.Fatalf("disarmed kill fired: %v", err)
	}
	for i := 0; i < 10; i++ {
		if r, _, _ := in.DeliveryFault(0, 64); r != 0 {
			t.Fatal("disarmed delivery fault fired")
		}
	}
	in.Arm()
	err := in.KillMapTask("map-00000", 0)
	if err == nil || !IsInjected(err) {
		t.Fatalf("armed certain kill = %v", err)
	}
	// The armed delivery sequence must match a fresh injector's: the
	// disarmed calls above may not have consumed sequence numbers.
	fresh := New(cfg, 2, nil)
	fresh.Arm()
	for i := 0; i < 50; i++ {
		r1, d1, e1 := in.DeliveryFault(0, 64)
		r2, d2, e2 := fresh.DeliveryFault(0, 64)
		if r1 != r2 || d1 != d2 || e1 != e2 {
			t.Fatalf("delivery decision %d shifted by disarmed calls", i)
		}
	}
}

func TestSitesReplayIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 9, KillMap: 0.5, Revoke: 0.3, MsgDrop: 0.4, Armed: true}
	run := func(seed int64) []string {
		c := cfg
		c.Seed = seed
		in := New(c, 4, nil)
		for i := 0; i < 16; i++ {
			_ = in.KillMapTask(taskSite(i), 0)
			in.Revoke(taskSite(i), 1)
			in.DeliveryFault(i%4, 128)
		}
		return in.Sites()
	}
	a, b := run(9), run(9)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different sites:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no faults fired; probabilities too low for this test")
	}
	if reflect.DeepEqual(a, run(10)) {
		t.Fatal("different seeds produced identical fault sites")
	}
}

func TestNormalizeSiteStripsJobPrefix(t *testing.T) {
	cases := map[string]string{
		"job12/map-00000/spill-3": "map-00000/spill-3",
		"job7/reduce-1/run":       "reduce-1/run",
		"jobless/name":            "jobless/name", // "job" not followed by digits+slash
		"job/x":                   "job/x",
		"plain":                   "plain",
		"job99":                   "job99", // digits but no slash
	}
	for in, want := range cases {
		if got := normalizeSite(in); got != want {
			t.Errorf("normalizeSite(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestErrorMatchingHelpers(t *testing.T) {
	kill := &Error{Op: "mr.map.kill", Site: "map-00000#0"}
	revoke := &Error{Op: "yarn.revoke", Site: "map-00000#0"}
	if !IsInjected(kill) || !IsInjected(revoke) {
		t.Fatal("injected errors not recognised")
	}
	if !errors.Is(kill, ErrInjected) {
		t.Fatal("errors.Is fails on injected error")
	}
	if IsRevocation(kill) || !IsRevocation(revoke) {
		t.Fatal("revocation classification wrong")
	}
	if IsInjected(errors.New("real failure")) {
		t.Fatal("real error classified as injected")
	}
}

func TestInjectedFaultsAreCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	in := New(Config{Seed: 1, KillMap: 1, Armed: true}, 2, reg)
	_ = in.KillMapTask("map-00000", 0)
	_ = in.KillMapTask("map-00001", 0)
	if got := reg.Counter("faults.injected").Value(); got != 2 {
		t.Fatalf("faults.injected = %d", got)
	}
	if got := reg.Counter("faults.mr.map.kill").Value(); got != 2 {
		t.Fatalf("faults.mr.map.kill = %d", got)
	}
	if in.Injected() != 2 {
		t.Fatalf("Injected() = %d", in.Injected())
	}
}

func TestStraggleReturnsConfiguredDelay(t *testing.T) {
	in := New(Config{Seed: 3, Straggle: 1, StraggleDelay: 5 * time.Millisecond, Armed: true}, 2, nil)
	d, ok := in.Straggle("map-00000")
	if !ok || d != 5*time.Millisecond {
		t.Fatalf("Straggle = %v, %v", d, ok)
	}
}
