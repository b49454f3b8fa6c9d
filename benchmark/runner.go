package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/bench"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/vtime"
)

// Load shape: closed loop, one client. One job at a time on a fresh
// cluster, engines alternating (odd pairs swap the order), runtime.GC()
// before each timed call, warm-up pairs discarded. The timed window is
// the Engine.Run* / Cluster.Run call only; cluster build, input load and
// output hashing sit outside it. The generator adds no threads of its own.

const (
	warmupPairs = 2
	// minTimedPairs is the floor under a -seconds budget: at 20 samples
	// the median is the highest percentile with ten samples beyond it.
	minTimedPairs = 20
	// hardStop ends a -seconds run early enough to print a result inside
	// the contract's 180 s process limit whatever the host speed.
	hardStop = 140 * time.Second
	// datagenReps: set-up is measured several times and its median
	// reported. Five, because the first generation in a process runs
	// cold (heap growth, page faults) at up to twice the cost of the rest.
	datagenReps = 5
)

var engines = [2]string{"hamr", "mr"}

// config fixes one workload run.
type config struct {
	seed     int64
	sizes    sizes
	pairs    int           // timed pairs; 0 = run for budget (at least minTimedPairs)
	budget   time.Duration // measuring time when pairs == 0
	traced   bool          // add the traced pair (per-layer trace.* metrics, Chrome traces)
	golden   bool          // compare digests with the checked-in golden ones
	outDir   string        // where the traced pair's files go
	progress io.Writer     // progress lines, may be io.Discard
}

// sample is one engine call. cpuS and setupS are process CPU seconds,
// wallS is the wall time of the same window as cpuS.
type sample struct {
	cpuS, wallS, modeledS, allocMB, setupS float64
	layer                                  map[string]float64
	digest                                 string
	events                                 []*trace.Event
}

// result is everything one workload run measured.
type result struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Pairs          int                `json:"pairs"`
	EndToEnd       map[string]summary `json:"end_to_end"`
	PerLayer       map[string]summary `json:"per_layer"`
	SpeedupModeled float64            `json:"speedup_modeled"`
	PaperSpeedup   float64            `json:"paper_speedup,omitempty"`
	Digest         string             `json:"digest"`
	Correct        bool               `json:"correct"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Failures       []string           `json:"failures,omitempty"`
}

// guardError marks a run that measured something other than the workload
// intends (too few spills, a dropped bin, a simulated OOM): the benchmark
// stops at once instead of reporting numbers for a different experiment.
type guardError struct{ err error }

func (g *guardError) Error() string { return "guard: " + g.err.Error() }

// processCPU is the CPU time (user + system, all threads) this process
// has used so far. Host cost is measured in it as well as in wall time
// because the engines keep every core busy, so wall time follows whatever
// else the sandbox is running: a one-core hog beside a run moved wall time
// by +77 % and CPU time by +2 %. (It does not resist a slower core.)
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

type runner struct {
	w    *workload
	cfg  config
	spec bench.ClusterSpec
	in   *input
	log  *spanLog
}

// clusterOptions is the benchmark's cluster: bench.DefaultSpec's 8x4 nodes
// and Table-1 cost models under a virtual clock built exactly as
// `hamrbench -vclock` builds it; cache, compression, faults and tracing off.
func clusterOptions(spec bench.ClusterSpec) (cluster.Options, *vtime.VirtualClock) {
	disk, net := spec.Disk, spec.Net
	vc := vtime.NewVirtual(spec.Nodes).SetRealHold(vtime.Startup, true)
	return cluster.Options{
		NumNodes:      spec.Nodes,
		Core:          spec.CoreConfig(),
		DiskModel:     &disk,
		NetModel:      &net,
		HDFSBlockSize: spec.HDFSBlockSize,
		Clock:         vc,
	}, vc
}

// newCluster builds that cluster with the workload's tuning and, for the
// traced pair, a span recorder.
func (r *runner) newCluster(traced bool) (*cluster.Cluster, *vtime.VirtualClock, *trace.Tracer, mapreduce.Config, error) {
	opts, vc := clusterOptions(r.spec)
	mrCfg := r.spec.MapReduce
	if r.w.tune != nil {
		r.w.tune(&opts, &mrCfg)
	}
	var tr *trace.Tracer
	if traced {
		tr = trace.New(r.spec.Nodes, vc)
		opts.Trace = tr
	}
	c, err := cluster.New(opts)
	return c, vc, tr, mrCfg, err
}

// parts is how many node-local files the HAMR input is split into.
func (r *runner) parts() int {
	if r.w.partsPerNode > 0 {
		return r.w.partsPerNode * r.spec.Nodes
	}
	return 2 * r.spec.Nodes
}

// callEngine makes one engine call on a fresh cluster and returns its
// sample. A returned error is a failed call; a *guardError aborts the run.
func (r *runner) callEngine(engine string, iter int, traced bool) (s sample, err error) {
	iterID, endIter := r.log.start(0, "iteration", engine, iter)
	defer endIter()
	span := func(name string) func() time.Duration { _, end := r.log.start(iterID, name, engine, iter); return end }

	// A clean heap before set-up as before the run: set-up is measured in
	// process CPU time, and collecting the previous call's garbage inside
	// it made setup_s bimodal.
	runtime.GC()
	cpu0 := processCPU()
	end := span("cluster_new")
	c, vc, tr, mrCfg, err := r.newCluster(traced)
	end()
	if err != nil {
		return s, err
	}
	defer func() {
		end := span("close")
		c.Close()
		end()
	}()

	end = span("input_load")
	var cl call
	if engine == "hamr" {
		var files map[int][]string
		if files, err = hamrapps.DistributeLocalText(c, r.w.Name, r.in.data, r.parts()); err == nil {
			cl, err = r.w.hamr(c, r.in, files, r.cfg.sizes)
		}
	} else {
		path := "in/" + r.w.Name
		if err = c.FS().WriteFile(path, r.in.data, -1); err == nil {
			cl, err = r.w.mr(c, mapreduce.NewEngine(c, mrCfg), r.in, path, r.cfg.sizes)
		}
	}
	end()
	s.setupS = processCPU() - cpu0
	if err != nil {
		return s, err
	}

	runtime.GC()
	snap0, busy0 := c.Metrics().Snapshot(), clockBusy(vc)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mark := vc.Mark()
	cpu0 = processCPU()
	end = span("run")
	err = cl.run()
	s.wallS = end().Seconds()
	s.cpuS = processCPU() - cpu0
	s.modeledS = vc.Since(mark).Seconds()
	runtime.ReadMemStats(&m1)
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) * mb
	if err != nil {
		var oom *mapreduce.OOMError
		if errors.As(err, &oom) {
			return s, &guardError{err}
		}
		return s, err
	}
	s.layer = counterDeltas(engine, snap0, c.Metrics().Snapshot(), busy0, clockBusy(vc))
	s.layer[engine+".host.cpu_s"], s.layer[engine+".host.wall_s"] = s.cpuS, s.wallS
	if engine == "mr" {
		granted, waited, _ := c.Yarn().Stats()
		s.layer["mr.yarn.granted"], s.layer["mr.yarn.waited"] = float64(granted), float64(waited)
	}
	for _, name := range []string{"hamr.core.bins_dropped", "hamr.transport.net_dropped", "mr.transport.net_dropped"} {
		if s.layer[name] != 0 {
			return s, &guardError{fmt.Errorf("%s = %g, want 0", name, s.layer[name])}
		}
	}
	if tr != nil {
		s.events = tr.Events()
	}

	end = span("verify")
	s.digest, err = cl.digest()
	end()
	return s, err
}

// pair runs both engines once and checks their outputs against each
// other (any seed) and against the golden digest (default seed and sizes).
// It returns the samples by engine and the failures among its two calls.
func (r *runner) pair(iter int, traced bool) (map[string]sample, []string, error) {
	out := make(map[string]sample, 2)
	var failures []string
	order := engines
	if iter%2 == 1 {
		order[0], order[1] = order[1], order[0]
	}
	for _, e := range order {
		s, err := r.callEngine(e, iter, traced)
		var g *guardError
		if errors.As(err, &g) {
			return nil, nil, fmt.Errorf("%s %s pair %d: %w", r.w.Name, e, iter, err)
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("pair %d %s: %v", iter, e, err))
			continue
		}
		if want := goldenDigests[r.w.Name]; r.cfg.golden && s.digest != want {
			failures = append(failures, fmt.Sprintf("pair %d %s: digest %s, golden %s", iter, e, s.digest, want))
			continue
		}
		out[e] = s
	}
	if h, m := out["hamr"], out["mr"]; len(out) == 2 {
		if h.digest != m.digest {
			failures = append(failures,
				fmt.Sprintf("pair %d hamr: digest %s differs from mr", iter, h.digest),
				fmt.Sprintf("pair %d mr: digest %s differs from hamr", iter, m.digest))
			return nil, failures, nil
		}
		if r.w.guard != nil {
			if err := r.w.guard(h.layer, m.layer, r.spec.Nodes); err != nil {
				return nil, nil, fmt.Errorf("%s pair %d: %w", r.w.Name, iter, &guardError{err})
			}
		}
	}
	return out, failures, nil
}

// runWorkload measures one workload: datagen, warm-up pairs, timed pairs,
// and (cfg.traced) one traced pair.
func runWorkload(w *workload, cfg config) (*result, error) {
	r := &runner{w: w, cfg: cfg, spec: bench.DefaultSpec(), log: newSpanLog()}
	res := &result{
		Workload: w.Name, Seed: cfg.seed,
		EndToEnd: map[string]summary{}, PerLayer: map[string]summary{},
	}

	var datagenS []float64
	for i := 0; i < datagenReps; i++ {
		runtime.GC()
		cpu0 := processCPU()
		_, end := r.log.start(0, "datagen", "", i)
		in := w.gen(cfg.seed, cfg.sizes)
		end()
		datagenS = append(datagenS, processCPU()-cpu0)
		if r.in == nil {
			r.in = in
		}
	}

	e2e := map[string][]float64{}
	layer := map[string][]float64{}
	var setupS []float64
	note := func(fails []string) {
		res.Attempted += 2
		res.Failed += len(fails)
		res.Failures = append(res.Failures, fails...)
	}

	var timedStart time.Time
	for iter := 0; ; iter++ {
		if iter == warmupPairs {
			timedStart = time.Now()
		}
		samples, fails, err := r.pair(iter, false)
		if err != nil {
			return nil, err
		}
		note(fails)
		if iter < warmupPairs {
			continue
		}
		if len(fails) == 0 {
			res.Pairs++
			res.Digest = samples["hamr"].digest
			var setup float64
			for _, e := range engines {
				s := samples[e]
				e2e[e+"_modeled_s"] = append(e2e[e+"_modeled_s"], s.modeledS)
				e2e[e+"_alloc_mb"] = append(e2e[e+"_alloc_mb"], s.allocMB)
				setup += s.setupS
				for k, v := range s.layer {
					layer[k] = append(layer[k], v)
				}
			}
			setupS = append(setupS, setup)
		}
		timed := iter - warmupPairs + 1
		elapsed := time.Since(timedStart)
		if cfg.pairs > 0 && timed >= cfg.pairs {
			break
		}
		if cfg.pairs == 0 && (elapsed >= hardStop || timed >= minTimedPairs && elapsed >= cfg.budget) {
			break
		}
		if timed%5 == 0 {
			fmt.Fprintf(cfg.progress, "  %s: %d pairs in %.1fs\n", w.Name, timed, elapsed.Seconds())
		}
	}
	if res.Pairs == 0 {
		res.Correct = false
		return res, nil
	}

	for _, m := range endToEnd {
		if m.Name != "setup_s" {
			res.EndToEnd[m.Name] = summarize(e2e[m.Name], m.Unit)
		}
	}
	setup := summarize(setupS, "s")
	dg := median(datagenS)
	setup.Value, setup.Q1, setup.Q3, setup.PHi = setup.Value+dg, setup.Q1+dg, setup.Q3+dg, setup.PHi+dg
	res.EndToEnd["setup_s"] = setup
	res.SpeedupModeled = res.EndToEnd["mr_modeled_s"].Value / res.EndToEnd["hamr_modeled_s"].Value
	if w.Paper != "" {
		res.PaperSpeedup = bench.PaperTable2[w.Paper].Speedup
	}
	for _, m := range perLayer() {
		if xs, ok := layer[m.Name]; ok {
			res.PerLayer[m.Name] = summarize(xs, m.Unit)
		}
	}

	if cfg.traced {
		samples, fails, err := r.pair(warmupPairs+res.Pairs, true)
		if err != nil {
			return nil, err
		}
		note(fails)
		if len(fails) == 0 {
			vals := traceAnalysis(samples, res.PerLayer)
			for _, m := range traceMetrics {
				res.PerLayer[m.Name] = summarize([]float64{vals[m.Name]}, m.Unit)
			}
			if err := writeTraces(cfg.outDir, w.Name, samples, r.log); err != nil {
				return nil, err
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}
