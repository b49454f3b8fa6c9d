package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/hamr-go/hamr/internal/apps"
	"github.com/hamr-go/hamr/internal/cluster"
)

// ConcurrentReport summarizes one multi-job throughput measurement: n
// identical jobs submitted at once against one cluster, compared with a
// solo run of the same job on the same cluster.
type ConcurrentReport struct {
	// Benchmark is the workload every job ran.
	Benchmark Benchmark
	// Jobs is the number of concurrent jobs.
	Jobs int
	// Solo is the wall-clock duration of the solo warm-up run.
	Solo time.Duration
	// Makespan is submission of the first job to completion of the last.
	Makespan time.Duration
	// JobsPerSec is Jobs / Makespan.
	JobsPerSec float64
	// PerJob is each job's own wall-clock duration, submission order.
	PerJob []time.Duration
	// Slowdown is mean(PerJob) / Solo — how much sharing the cluster
	// stretched each job relative to running alone.
	Slowdown float64
}

// ConcurrentThroughput measures multi-job throughput: one solo run for the
// baseline, then n identical jobs submitted together through the cluster's
// job manager, which divides loader slots and YARN memory between them.
// Durations are wall-clock — overlapping jobs are exactly what virtual
// per-lane time cannot attribute, so this mode ignores Spec.VClock.
func (h *Harness) ConcurrentThroughput(w *apps.Workload, n int) (*ConcurrentReport, error) {
	if w.Graph == nil {
		return nil, fmt.Errorf("bench: %s is not one graph a job manager can be handed: not supported in -jobs mode", w.Name)
	}
	if n < 1 {
		n = 1
	}
	opts, _, _ := h.clusterOptions()
	opts.MaxConcurrentJobs = n
	opts.JobQueueDepth = n + 1
	// Split each node's schedulable memory across the n jobs so YARN
	// admission is a real (but satisfiable) constraint.
	if opts.YarnMemMB <= 0 {
		opts.YarnMemMB = 4096
	}
	opts.JobMemMB = opts.YarnMemMB / n
	c, err := cluster.New(opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	data, r := h.input(w, apps.Variant{})
	env, err := w.HAMREnv(c, data, r)
	if err != nil {
		return nil, err
	}

	// Every submission needs its own graph: sinks hold per-job output.
	solo, _, err := w.Graph(env)
	if err != nil {
		return nil, err
	}
	soloRes, err := c.Run(solo)
	if err != nil {
		return nil, fmt.Errorf("bench: %s solo: %w", w.Name, err)
	}

	handles := make([]*cluster.JobHandle, n)
	start := time.Now()
	for i := range handles {
		g, _, err := w.Graph(env)
		if err != nil {
			return nil, err
		}
		hnd, err := c.Submit(context.Background(), g)
		if err != nil {
			return nil, fmt.Errorf("bench: %s submit %d: %w", w.Name, i, err)
		}
		handles[i] = hnd
	}
	rep := &ConcurrentReport{Benchmark: w.Name, Jobs: n, Solo: soloRes.Duration}
	var sum time.Duration
	for i, hnd := range handles {
		res, err := hnd.Wait()
		if err != nil {
			return nil, fmt.Errorf("bench: %s job %d: %w", w.Name, i, err)
		}
		rep.PerJob = append(rep.PerJob, res.Duration)
		sum += res.Duration
	}
	rep.Makespan = time.Since(start)
	if s := rep.Makespan.Seconds(); s > 0 {
		rep.JobsPerSec = float64(n) / s
	}
	if rep.Solo > 0 && n > 0 {
		rep.Slowdown = (sum.Seconds() / float64(n)) / rep.Solo.Seconds()
	}
	h.LastHAMRCluster = c.Metrics().Snapshot()
	return rep, nil
}

// WriteConcurrentReport renders a ConcurrentReport.
func WriteConcurrentReport(w io.Writer, r *ConcurrentReport) {
	fmt.Fprintf(w, "Concurrent jobs — %s, %d jobs sharing one cluster\n", r.Benchmark, r.Jobs)
	fmt.Fprintf(w, "  solo       %12v\n", r.Solo.Round(time.Millisecond))
	fmt.Fprintf(w, "  makespan   %12v   (%.2f jobs/sec)\n", r.Makespan.Round(time.Millisecond), r.JobsPerSec)
	fmt.Fprintf(w, "  slowdown   %12.2fx  mean per-job vs solo\n", r.Slowdown)
	for i, d := range r.PerJob {
		fmt.Fprintf(w, "  job %-2d     %12v\n", i, d.Round(time.Millisecond))
	}
}
