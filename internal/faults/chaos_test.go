// Deterministic chaos suite: every scenario runs a real job on the
// simulated cluster with a seeded fault injector armed, then checks two
// things against a fault-free run of the same job:
//
//  1. the output is byte-identical — recovery must mask every injected
//     fault completely;
//  2. the fault and recovery counters match values computed up front from
//     the injector's pure decision predictors — the same seed must fire
//     the same faults, run after run, even under -race.
//
// Scenario probabilities and seeds are chosen so that recovery succeeds
// (no task exhausts its attempt budget); the predictor verifies that
// assumption explicitly rather than leaving it to luck.
package faults_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/apps/mrapps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/vtime"
)

// chaosSeeds are the fixed seeds every scenario replays under (CI runs the
// suite with -count=2, so each seed must also be stable across repeats in
// one process).
var chaosSeeds = []int64{1, 2, 3}

const chaosNodes = 3

// corpus is the deterministic WordCount input: big enough for several
// 4 KiB input blocks (= several map tasks), small enough to stay fast.
func corpus() []byte {
	return datagen.Text(datagen.TextConfig{Seed: 17, Vocabulary: 120, Lines: 600})
}

// mrRun is one MapReduce WordCount execution with (or without) faults.
type mrRun struct {
	c      *cluster.Cluster
	res    *mapreduce.Result
	err    error
	output map[string]string
}

// runMRWordCount executes WordCount on a fresh cluster of nodes nodes that
// pays modeled delays through clk (nil is the real clock). The injector is
// armed only around the job: input load and output verification stay
// fault-free.
func runMRWordCount(t *testing.T, nodes int, clk vtime.Clock, fcfg *faults.Config) *mrRun {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		NumNodes:        nodes,
		HDFSBlockSize:   4 << 10,
		HDFSReplication: 2,
		Faults:          fcfg,
		Clock:           clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.FS().WriteFile("in/words", corpus(), -1); err != nil {
		t.Fatal(err)
	}
	eng := mapreduce.NewEngine(c, mapreduce.Config{})
	inj := c.Substrate().Faults
	inj.Arm()
	res, err := eng.Run(mrapps.WordCountJob("in/words", "out", true, 3))
	inj.Disarm()
	r := &mrRun{c: c, res: res, err: err}
	if err == nil {
		r.output = readHDFSOutput(t, c, "out/")
		// Every map task here spills once, so its output is that one file
		// under its attempt's name: a killed or revoked attempt and the
		// one that succeeded must each have taken theirs away by the time
		// the job returns.
		for node, d := range c.Disks() {
			for _, f := range d.List("") {
				if !strings.HasPrefix(f, "hdfs/") {
					t.Errorf("node %d still holds %s after the job", node, f)
				}
			}
		}
	}
	return r
}

func readHDFSOutput(t *testing.T, c *cluster.Cluster, prefix string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, f := range c.FS().List(prefix) {
		data, err := c.FS().ReadFile(f, -1)
		if err != nil {
			t.Fatal(err)
		}
		cur := ""
		for _, b := range data {
			if b == '\n' {
				for i := 0; i < len(cur); i++ {
					if cur[i] == '\t' {
						out[cur[:i]] = cur[i+1:]
						break
					}
				}
				cur = ""
			} else {
				cur += string(b)
			}
		}
	}
	return out
}

// taskPlan is the predicted fate of one task's attempt sequence under the
// engine's retry policy, mirrored from mapreduce.retryTask: kills consume
// attempts (mapreduce.task.maxattempts = 4 by default), revocations do
// not but are separately bounded.
type taskPlan struct {
	kills    int
	revokes  int
	retries  int
	survives bool
}

func predictTask(in *faults.Injector, kill, revoke func(site string, attempt int) bool,
	site string, maxAttempts int) taskPlan {
	const revokeBudget = 8
	var p taskPlan
	fails := 0
	for seq := 0; ; seq++ {
		switch {
		case kill(site, seq):
			p.kills++
			fails++
			if fails >= maxAttempts {
				return p
			}
		case revoke(site, seq):
			p.revokes++
			if seq+1 >= maxAttempts+revokeBudget {
				return p
			}
		default:
			p.survives = true
			return p
		}
		p.retries++
	}
}

func counter(c *cluster.Cluster, name string) int64 {
	return c.Metrics().Counter(name).Value()
}

func assertSameOutput(t *testing.T, got, want map[string]string) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("baseline output empty")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("output diverged from fault-free run: %d keys vs %d", len(got), len(want))
	}
}

// TestChaosMapTaskKills kills map task attempts at their mid-task
// checkpoint and verifies the retried tasks reproduce the fault-free
// output exactly, with kill and retry counters matching the predictor.
func TestChaosMapTaskKills(t *testing.T) {
	base := runMRWordCount(t, chaosNodes, nil, nil)
	if base.err != nil {
		t.Fatal(base.err)
	}
	// Seeds verified against the predictor: each kills at least one map
	// attempt and none exhausts a task's attempt budget.
	for _, seed := range []int64{1, 3, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fcfg := &faults.Config{Seed: seed, KillMap: 0.3}
			run := runMRWordCount(t, chaosNodes, nil, fcfg)
			inj := run.c.Substrate().Faults

			var kills, retries int64
			for i := 0; i < base.res.MapTasks; i++ {
				p := predictTask(inj, inj.WouldKillMap, inj.WouldRevoke,
					fmt.Sprintf("map-%05d", i), 4)
				if !p.survives {
					t.Fatalf("seed %d exhausts map-%05d's attempts; pick another seed", seed, i)
				}
				kills += int64(p.kills)
				retries += int64(p.retries)
			}
			if kills == 0 {
				t.Fatalf("seed %d kills no map task; pick another seed", seed)
			}
			if run.err != nil {
				t.Fatalf("job failed despite surviving plan: %v", run.err)
			}
			assertSameOutput(t, run.output, base.output)
			if got := counter(run.c, "faults.mr.map.kill"); got != kills {
				t.Errorf("faults.mr.map.kill = %d, want %d", got, kills)
			}
			if got := counter(run.c, "faults.injected"); got != kills {
				t.Errorf("faults.injected = %d, want %d", got, kills)
			}
			if got := counter(run.c, "mr.task.retries"); got != retries {
				t.Errorf("mr.task.retries = %d, want %d", got, retries)
			}
		})
	}
}

// TestChaosReduceTaskKills kills reduce attempts after the shuffle fetch
// (mid-merge): the retry must re-fetch from the still-present map output
// and produce identical results.
func TestChaosReduceTaskKills(t *testing.T) {
	base := runMRWordCount(t, chaosNodes, nil, nil)
	if base.err != nil {
		t.Fatal(base.err)
	}
	// Seeds verified to kill at least one reduce attempt and survive.
	for _, seed := range []int64{1, 2, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fcfg := &faults.Config{Seed: seed, KillReduce: 0.5}
			run := runMRWordCount(t, chaosNodes, nil, fcfg)
			inj := run.c.Substrate().Faults

			var kills, retries int64
			for r := 0; r < base.res.ReduceTasks; r++ {
				p := predictTask(inj, inj.WouldKillReduce, inj.WouldRevoke,
					fmt.Sprintf("reduce-%05d", r), 4)
				if !p.survives {
					t.Fatalf("seed %d exhausts reduce-%05d's attempts; pick another seed", seed, r)
				}
				kills += int64(p.kills)
				retries += int64(p.retries)
			}
			if kills == 0 {
				t.Fatalf("seed %d kills no reduce task; pick another seed", seed)
			}
			if run.err != nil {
				t.Fatalf("job failed despite surviving plan: %v", run.err)
			}
			assertSameOutput(t, run.output, base.output)
			if got := counter(run.c, "faults.mr.reduce.kill"); got != kills {
				t.Errorf("faults.mr.reduce.kill = %d, want %d", got, kills)
			}
			if got := counter(run.c, "mr.task.retries"); got != retries {
				t.Errorf("mr.task.retries = %d, want %d", got, retries)
			}
		})
	}
}

// TestChaosDeadDatanode declares one node's storage dead: every replica it
// holds is unreadable and reads must fail over to the surviving replica,
// while blocks written during the job must avoid the dead node entirely.
func TestChaosDeadDatanode(t *testing.T) {
	base := runMRWordCount(t, chaosNodes, nil, nil)
	if base.err != nil {
		t.Fatal(base.err)
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fcfg := &faults.Config{Seed: seed, DeadNodes: 1}
			run := runMRWordCount(t, chaosNodes, nil, fcfg)
			if run.err != nil {
				t.Fatalf("job failed: %v", run.err)
			}
			assertSameOutput(t, run.output, base.output)

			inj := run.c.Substrate().Faults
			dead := map[int]bool{}
			for _, n := range inj.DeadNodeSet() {
				dead[n] = true
			}
			if len(dead) != 1 {
				t.Fatalf("dead set = %v", inj.DeadNodeSet())
			}
			// Output blocks were written while the injector was armed, so
			// placement must have avoided the dead node.
			for _, f := range run.c.FS().List("out/") {
				blocks, err := run.c.FS().Blocks(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range blocks {
					for _, r := range b.Replicas {
						if dead[int(r)] {
							t.Fatalf("output block %s placed on dead node %d", b.ID, r)
						}
					}
				}
			}
			// The input is replicated twice across three nodes, so the dead
			// node holds input replicas; at least the map attempts scheduled
			// on it must have failed over.
			if counter(run.c, "hdfs.failover.reads") == 0 &&
				counter(run.c, "faults.hdfs.replica") > 0 {
				t.Error("replica faults fired but no failover was counted")
			}
			if counter(run.c, "faults.injected") != counter(run.c, "faults.hdfs.replica") {
				t.Error("dead-node scenario fired non-replica faults")
			}
		})
	}
}

// TestChaosContainerRevocation preempts task containers mid-run: the YARN
// memory must be returned exactly once per revocation and the rescheduled
// attempts must reproduce the output.
func TestChaosContainerRevocation(t *testing.T) {
	base := runMRWordCount(t, chaosNodes, nil, nil)
	if base.err != nil {
		t.Fatal(base.err)
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fcfg := &faults.Config{Seed: seed, Revoke: 0.4}
			run := runMRWordCount(t, chaosNodes, nil, fcfg)
			inj := run.c.Substrate().Faults

			var revokes, retries int64
			for i := 0; i < base.res.MapTasks; i++ {
				p := predictTask(inj, inj.WouldKillMap, inj.WouldRevoke,
					fmt.Sprintf("map-%05d", i), 4)
				if !p.survives {
					t.Fatalf("seed %d exhausts map-%05d; pick another seed", seed, i)
				}
				revokes += int64(p.revokes)
				retries += int64(p.retries)
			}
			for r := 0; r < base.res.ReduceTasks; r++ {
				p := predictTask(inj, inj.WouldKillReduce, inj.WouldRevoke,
					fmt.Sprintf("reduce-%05d", r), 4)
				if !p.survives {
					t.Fatalf("seed %d exhausts reduce-%05d; pick another seed", seed, r)
				}
				revokes += int64(p.revokes)
				retries += int64(p.retries)
			}
			if revokes == 0 {
				t.Fatalf("seed %d revokes nothing; pick another seed", seed)
			}
			if run.err != nil {
				t.Fatalf("job failed despite surviving plan: %v", run.err)
			}
			assertSameOutput(t, run.output, base.output)
			if got := run.c.Yarn().Revoked(); got != revokes {
				t.Errorf("yarn revoked %d containers, want %d", got, revokes)
			}
			if got := counter(run.c, "faults.yarn.revoke"); got != revokes {
				t.Errorf("faults.yarn.revoke = %d, want %d", got, revokes)
			}
			if got := counter(run.c, "mr.task.retries"); got != retries {
				t.Errorf("mr.task.retries = %d, want %d", got, retries)
			}
			// Every granted container was either released or revoked:
			// revocation must not corrupt the scheduler's accounting.
			granted, _, released := run.c.Yarn().Stats()
			if granted != released+revokes {
				t.Errorf("yarn accounting: granted %d != released %d + revoked %d",
					granted, released, revokes)
			}
		})
	}
}

// TestChaosStragglerChargesFirstAttempt declares every map task a
// straggler: each first attempt pays StraggleDelay to the clock's fault
// resource, and the job's output is unchanged.
func TestChaosStragglerChargesFirstAttempt(t *testing.T) {
	base := runMRWordCount(t, chaosNodes, nil, nil)
	if base.err != nil {
		t.Fatal(base.err)
	}
	const delay = 300 * time.Millisecond
	clk := vtime.NewVirtual(chaosNodes)
	run := runMRWordCount(t, chaosNodes, clk, &faults.Config{Seed: 1, Straggle: 1, StraggleDelay: delay})
	if run.err != nil {
		t.Fatalf("job failed: %v", run.err)
	}
	assertSameOutput(t, run.output, base.output)
	tasks := int64(base.res.MapTasks)
	if got := counter(run.c, "faults.mr.straggle"); got != tasks {
		t.Errorf("faults.mr.straggle = %d, want one per map task (%d)", got, tasks)
	}
	if got, want := clk.Busy(vtime.Fault), time.Duration(tasks)*delay; got != want {
		t.Errorf("fault time charged = %v, want %v", got, want)
	}
}

// hamrRun is one HAMR WordCount execution.
type hamrRun struct {
	c      *cluster.Cluster
	err    error
	output []core.KV
}

// runHAMRWordCount executes the flowlet WordCount on nodes nodes and clk, as
// runMRWordCount does. Coalescing is disabled so every fabric message is
// individually visible to the injector's delivery hook.
func runHAMRWordCount(t *testing.T, nodes int, clk vtime.Clock, fcfg *faults.Config) *hamrRun {
	t.Helper()
	return runHAMRWordCountBins(t, nodes, clk, fcfg, 0)
}

// runHAMRWordCountBins is runHAMRWordCount with binSize pairs per bin (0:
// the engine default); smaller bins mean more fabric messages for the same
// input.
func runHAMRWordCountBins(t *testing.T, nodes int, clk vtime.Clock, fcfg *faults.Config, binSize int) *hamrRun {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		NumNodes:      nodes,
		HDFSBlockSize: 4 << 10,
		Core:          core.Config{Workers: 2, CoalesceMsgs: -1, BinSize: binSize},
		Faults:        fcfg,
		Clock:         clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	files, err := hamrapps.DistributeLocalText(c, "words", corpus(), 2*nodes)
	if err != nil {
		t.Fatal(err)
	}
	g, sink, err := hamrapps.BuildWordCount(hamrapps.WordCountOptions{
		Loader:   &hamrapps.LocalTextLoader{Files: files},
		Combiner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := c.Substrate().Faults
	inj.Arm()
	done := make(chan error, 1)
	go func() {
		_, rerr := c.Run(g)
		done <- rerr
	}()
	var rerr error
	select {
	case rerr = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("HAMR job hung under fault injection")
	}
	inj.Disarm()
	r := &hamrRun{c: c, err: rerr}
	if rerr == nil {
		r.output = sink.Sorted()
	}
	return r
}

// TestChaosMessageDropDupDelay drops, duplicates and delays fabric
// messages: the reliable fabric retransmits and dedups, so the flowlet
// output must not change at all.
func TestChaosMessageDropDupDelay(t *testing.T) {
	const dropRate, binSize = 0.05, 8
	base := runHAMRWordCountBins(t, chaosNodes, nil, nil, binSize)
	if base.err != nil {
		t.Fatal(base.err)
	}
	if len(base.output) == 0 {
		t.Fatal("baseline output empty")
	}
	// With the combiner on, the fabric carries each node's folded counts
	// and their acks — a dozen messages at the default bin size, which is
	// why bins are small here. One seed may still drop none; over all seeds
	// the expected number of drops must be large enough that none firing
	// means the hook was not consulted, not bad luck.
	msgs := counter(base.c, "net.msgs")
	if want := dropRate * float64(msgs) * float64(len(chaosSeeds)); want < 8 {
		t.Fatalf("%d fabric messages per job expect %.1f drops over %d seeds; shrink binSize", msgs, want, len(chaosSeeds))
	}
	var drops int64
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fcfg := &faults.Config{
				Seed:        seed,
				MsgDrop:     dropRate,
				MsgDup:      0.03,
				MsgDelay:    0.05,
				MsgDelayDur: 200 * time.Microsecond,
			}
			run := runHAMRWordCountBins(t, chaosNodes, nil, fcfg, binSize)
			if run.err != nil {
				t.Fatalf("job failed: %v", run.err)
			}
			if !reflect.DeepEqual(run.output, base.output) {
				t.Fatalf("output diverged under message faults: %d pairs vs %d",
					len(run.output), len(base.output))
			}
			if counter(run.c, "faults.injected") == 0 {
				t.Error("no message faults fired")
			}
			d := counter(run.c, "faults.net.drop")
			dups := counter(run.c, "faults.net.dup")
			delays := counter(run.c, "faults.net.delay")
			if d+dups+delays != counter(run.c, "faults.injected") {
				t.Error("message scenario fired non-network faults")
			}
			drops += d
		})
	}
	t.Logf("%d fabric messages per job, %d drops over %d seeds", msgs, drops, len(chaosSeeds))
	if drops == 0 {
		t.Errorf("no drops at %.0f%% over %d jobs of %d messages", 100*dropRate, len(chaosSeeds), msgs)
	}
}

// TestChaosFlowletRefire crashes fine-grain flowlet tasks at their start;
// bounded re-fires must mask every crash and reproduce the output.
func TestChaosFlowletRefire(t *testing.T) {
	base := runHAMRWordCount(t, chaosNodes, nil, nil)
	if base.err != nil {
		t.Fatal(base.err)
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fcfg := &faults.Config{Seed: seed, FlowletFire: 0.15}
			run := runHAMRWordCount(t, chaosNodes, nil, fcfg)
			if run.err != nil {
				t.Fatalf("job failed: %v", run.err)
			}
			if !reflect.DeepEqual(run.output, base.output) {
				t.Fatalf("output diverged under re-fires: %d pairs vs %d",
					len(run.output), len(base.output))
			}
			fires := counter(run.c, "faults.flowlet.fire")
			refires := counter(run.c, "flowlet.refires")
			if fires == 0 {
				t.Fatalf("seed %d crashed no flowlet task; pick another seed", seed)
			}
			// Every crash that the job survived was followed by a re-fire.
			if refires != fires {
				t.Errorf("flowlet.refires = %d, faults.flowlet.fire = %d", refires, fires)
			}
		})
	}
}

// TestChaosMixedFaults is the end-to-end recovery check at the benchmarks'
// cluster size: eight nodes, a mixed fault configuration per engine — task
// kills with container revocations under MapReduce, flowlet crashes with
// message drop/dup/delay under HAMR — on the real clock and on a virtual
// one, where injected delays advance logical clocks instead of sleeping.
// Seeds are verified to inject faults into every layer without exhausting
// any task's retry budget. Recovery must mask every fault: faults fired,
// tasks were retried, and both outputs are the fault-free ones.
func TestChaosMixedFaults(t *testing.T) {
	const nodes = 8
	mrBase := runMRWordCount(t, nodes, nil, nil)
	hBase := runHAMRWordCount(t, nodes, nil, nil)
	if mrBase.err != nil || hBase.err != nil {
		t.Fatal(mrBase.err, hBase.err)
	}
	for _, seed := range []int64{1, 3, 5} {
		for _, virtual := range []bool{false, true} {
			seed, virtual := seed, virtual
			t.Run(fmt.Sprintf("seed=%d/vclock=%v", seed, virtual), func(t *testing.T) {
				clock := func() vtime.Clock {
					if virtual {
						return vtime.NewVirtual(nodes)
					}
					return nil
				}
				mr := runMRWordCount(t, nodes, clock(),
					&faults.Config{Seed: seed, KillMap: 0.3, Revoke: 0.2})
				if mr.err != nil {
					t.Fatalf("mapreduce job failed: %v", mr.err)
				}
				if counter(mr.c, "faults.injected") == 0 {
					t.Error("mapreduce: no faults fired")
				}
				if counter(mr.c, "mr.task.retries") == 0 {
					t.Error("mapreduce: no task was retried")
				}
				assertSameOutput(t, mr.output, mrBase.output)

				h := runHAMRWordCount(t, nodes, clock(), &faults.Config{
					Seed: seed, FlowletFire: 0.1, MsgDrop: 0.03, MsgDup: 0.02,
					MsgDelay: 0.03, MsgDelayDur: 100 * time.Microsecond,
				})
				if h.err != nil {
					t.Fatalf("hamr job failed: %v", h.err)
				}
				if counter(h.c, "faults.injected") == 0 {
					t.Error("hamr: no faults fired")
				}
				if !reflect.DeepEqual(h.output, hBase.output) {
					t.Errorf("hamr output diverged under faults: %d pairs vs %d", len(h.output), len(hBase.output))
				}
			})
		}
	}
}

// TestChaosFlowletAbortPropagation makes every fire attempt of every
// fine-grain task crash: re-fires exhaust and the job must abort promptly
// across all nodes, surfacing the original injected error — not hang.
func TestChaosFlowletAbortPropagation(t *testing.T) {
	c, err := cluster.New(cluster.Options{
		NumNodes: chaosNodes,
		Core:     core.Config{Workers: 2},
		Faults:   &faults.Config{Seed: 1, FlowletFire: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	files, err := hamrapps.DistributeLocalText(c, "words", corpus(), chaosNodes)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := hamrapps.BuildWordCount(hamrapps.WordCountOptions{
		Loader: &hamrapps.LocalTextLoader{Files: files},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Substrate().Faults.Arm()
	defer c.Substrate().Faults.Disarm()
	done := make(chan error, 1)
	go func() {
		_, rerr := c.Run(g)
		done <- rerr
	}()
	select {
	case rerr := <-done:
		if rerr == nil {
			t.Fatal("job succeeded with every task crashing")
		}
		if !faults.IsInjected(rerr) {
			t.Fatalf("abort lost the original injected cause: %v", rerr)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("exhausted re-fires did not abort the job")
	}
}

// TestChaosSeedReplay runs the same faulty job twice with the same seed —
// the fired fault sites and counters must be identical — and once with a
// different seed, which must fire a different set.
func TestChaosSeedReplay(t *testing.T) {
	type replay struct {
		sites    []string
		injected int64
		retries  int64
		output   map[string]string
	}
	run := func(seed int64) replay {
		r := runMRWordCount(t, chaosNodes, nil, &faults.Config{Seed: seed, KillMap: 0.3, KillReduce: 0.3, Revoke: 0.2})
		if r.err != nil {
			t.Fatalf("seed %d job failed: %v", seed, r.err)
		}
		return replay{
			sites:    r.c.Substrate().Faults.Sites(),
			injected: counter(r.c, "faults.injected"),
			retries:  counter(r.c, "mr.task.retries"),
			output:   r.output,
		}
	}
	a, b := run(1), run(1)
	if !reflect.DeepEqual(a.sites, b.sites) {
		t.Fatalf("same seed fired different sites:\n%v\n%v", a.sites, b.sites)
	}
	if a.injected != b.injected || a.retries != b.retries {
		t.Fatalf("same seed, different counters: %d/%d vs %d/%d",
			a.injected, a.retries, b.injected, b.retries)
	}
	if a.injected == 0 {
		t.Fatal("replay scenario fired no faults")
	}
	assertSameOutput(t, b.output, a.output)
	other := run(3)
	if reflect.DeepEqual(a.sites, other.sites) {
		t.Fatal("different seeds fired identical fault sites")
	}
	assertSameOutput(t, other.output, a.output)
}

// TestChaosDisabledInjectorIsInvariant verifies the tentpole's invariance
// guarantee: a cluster carrying a fully configured but never-armed
// injector produces the same output and the same deterministic counters
// as a cluster built without any injector.
func TestChaosDisabledInjectorIsInvariant(t *testing.T) {
	loaded := &faults.Config{
		Seed: 99, DiskRead: 0.5, DiskWrite: 0.5, DeadNodes: 2, DeadReplica: 0.5,
		MsgDrop: 0.5, MsgDup: 0.5, MsgDelay: 0.5, MsgDelayDur: time.Millisecond,
		KillMap: 0.9, KillReduce: 0.9, Straggle: 0.9, StraggleDelay: time.Second,
		Revoke: 0.9, FlowletFire: 0.9,
	}

	bare := runMRWordCount(t, chaosNodes, nil, nil)
	if bare.err != nil {
		t.Fatal(bare.err)
	}
	armedOff := func(t *testing.T, fcfg *faults.Config) *mrRun {
		t.Helper()
		c, err := cluster.New(cluster.Options{
			NumNodes:        chaosNodes,
			HDFSBlockSize:   4 << 10,
			HDFSReplication: 2,
			Faults:          fcfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.FS().WriteFile("in/words", corpus(), -1); err != nil {
			t.Fatal(err)
		}
		eng := mapreduce.NewEngine(c, mapreduce.Config{})
		res, err := eng.Run(mrapps.WordCountJob("in/words", "out", true, 3))
		r := &mrRun{c: c, res: res, err: err}
		if err == nil {
			r.output = readHDFSOutput(t, c, "out/")
		}
		return r
	}
	carrying := armedOff(t, loaded)
	if carrying.err != nil {
		t.Fatal(carrying.err)
	}
	assertSameOutput(t, carrying.output, bare.output)
	// Deterministic counters must match exactly; fault counters must all
	// be zero (scheduling-dependent counters like mr.map.local are
	// legitimately run-variable and are not compared).
	for _, name := range []string{
		"mr.jobs", "mr.spills", "mr.task.retries",
		"faults.injected", "hdfs.failover.reads", "hdfs.write.replaced",
		"flowlet.refires",
	} {
		if g, w := counter(carrying.c, name), counter(bare.c, name); g != w {
			t.Errorf("%s = %d with disarmed injector, %d without", name, g, w)
		}
	}
	if counter(carrying.c, "faults.injected") != 0 {
		t.Error("disarmed injector fired")
	}
	if carrying.res.MapTasks != bare.res.MapTasks || carrying.res.ReduceTasks != bare.res.ReduceTasks {
		t.Error("task counts diverged")
	}

	// Same invariance for the flowlet engine.
	hBare := runHAMRWordCount(t, chaosNodes, nil, nil)
	if hBare.err != nil {
		t.Fatal(hBare.err)
	}
	hOff := func() *hamrRun {
		c, err := cluster.New(cluster.Options{
			NumNodes:      chaosNodes,
			HDFSBlockSize: 4 << 10,
			Core:          core.Config{Workers: 2, CoalesceMsgs: -1},
			Faults:        loaded,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		files, err := hamrapps.DistributeLocalText(c, "words", corpus(), 2*chaosNodes)
		if err != nil {
			t.Fatal(err)
		}
		g, sink, err := hamrapps.BuildWordCount(hamrapps.WordCountOptions{
			Loader:   &hamrapps.LocalTextLoader{Files: files},
			Combiner: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := c.Run(g)
		r := &hamrRun{c: c, err: rerr}
		if rerr == nil {
			r.output = sink.Sorted()
		}
		return r
	}()
	if hOff.err != nil {
		t.Fatal(hOff.err)
	}
	if !reflect.DeepEqual(hOff.output, hBare.output) {
		t.Fatal("flowlet output diverged with a disarmed injector")
	}
	for _, name := range []string{"loader.splits", "faults.injected", "flowlet.refires"} {
		if g, w := counter(hOff.c, name), counter(hBare.c, name); g != w {
			t.Errorf("%s = %d with disarmed injector, %d without", name, g, w)
		}
	}
}
