package bench

import (
	"fmt"
	"time"

	"github.com/hamr-go/hamr/internal/apps"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/vtime"
)

// Harness runs the rows of apps.Table on both engines, each run over a fresh
// cluster built from the spec, generating a row's input the first time it is
// asked for. Both answers are held to the row's single-threaded reference
// once the clocks have stopped and the counters are captured; a row that
// disagrees is an error — a time without a checked answer is not a result.
type Harness struct {
	Spec  ClusterSpec
	Scale Scale

	// Trace attaches a span recorder to every cluster the harness builds
	// and keeps each run's timeline in its Side for export and
	// critical-path analysis. Off by default — the engines' hot paths stay
	// untouched.
	Trace bool

	// Checked counts the keys of the answers held to their reference so
	// far: it grows with every row the harness returns without error.
	Checked int

	inputs map[*apps.Dataset][]byte
}

// NewHarness prepares a harness; inputs are deterministic in the scale.
func NewHarness(spec ClusterSpec, scale Scale) *Harness {
	return &Harness{Spec: spec, Scale: scale, inputs: map[*apps.Dataset][]byte{}}
}

// input is the row's generated input and its run under a variant.
func (h *Harness) input(w *apps.Workload, v apps.Variant) ([]byte, apps.Run) {
	data, ok := h.inputs[w.Data]
	if !ok {
		data = w.Data.Gen(h.Scale)
		h.inputs[w.Data] = data
	}
	return data, w.NewRun(h.Scale, data, v)
}

// clusterOptions builds one run's clock — the per-run virtual clock (vc) when
// the spec asks for one, the real one otherwise — its tracer when tracing is
// on, and the benchmark cluster's options over both. Task-startup charges
// keep a real hold: they are issued while the task's YARN container is held,
// and that hold is what spreads sibling allocations across nodes — a
// scheduling effect a purely logical charge cannot reproduce.
//
// Disk charges are deliberately NOT divided by the disk model's stream
// parallelism: with more workers than disk slots the slot pool runs
// saturated and queue wait pushes real per-node disk wall time toward the
// serialized sum, which the undivided lane matches far better across
// Table 2.
func (h *Harness) clusterOptions() (opts cluster.Options, vc *vtime.VirtualClock, tr *trace.Tracer) {
	clk := vtime.Real()
	if h.Spec.VClock {
		vc = vtime.NewVirtual(h.Spec.Nodes)
		vc.SetRealHold(vtime.Startup, true)
		clk = vc
	}
	if h.Trace {
		tr = trace.New(h.Spec.Nodes, clk)
	}
	return h.Spec.ClusterOptions(clk, tr), vc, tr
}

// laneImbalance is the largest node lane's advance over the mean advance:
// 1 when every node carried an equal share of the modeled work, the node
// count when one node carried all of it. 0 when nothing was charged.
func laneImbalance(lanes []time.Duration) float64 {
	var largest, sum time.Duration
	for _, d := range lanes {
		sum += d
		if d > largest {
			largest = d
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(largest) * float64(len(lanes)) / float64(sum)
}

// sideMR runs row w on the baseline (IDH stand-in): the input in HDFS, run
// by an engine with the spec's overhead model.
func (h *Harness) sideMR(w *apps.Workload, data []byte, r apps.Run) (Side, apps.Output, error) {
	return h.runSide(w, apps.SideMR, func(c *cluster.Cluster) (apps.Env, error) {
		return w.MREnv(c, h.Spec.MapReduce, data, r)
	}, w.MR)
}

// sideHAMR runs row w on the flowlet engine: the input split over the nodes'
// local disks.
func (h *Harness) sideHAMR(w *apps.Workload, data []byte, r apps.Run) (Side, apps.Output, error) {
	return h.runSide(w, apps.SideHAMR, func(c *cluster.Cluster) (apps.Env, error) {
		return w.HAMREnv(c, data, r)
	}, func(e apps.Env) (apps.Collect, error) {
		_, collect, err := w.RunHAMR(e)
		return collect, err
	})
}

// runSide times one engine's run of row w over a fresh cluster with the
// spec's cost models: stage lays the input out on it, the clock runs over
// run alone, and the metrics and the trace are captured before the answer
// is read. side names the engine in errors.
func (h *Harness) runSide(w *apps.Workload, side string,
	stage func(*cluster.Cluster) (apps.Env, error), run func(apps.Env) (apps.Collect, error)) (Side, apps.Output, error) {
	opts, vc, tr := h.clusterOptions()
	c, err := cluster.New(opts)
	if err != nil {
		return Side{}, nil, err
	}
	defer c.Close()
	env, err := stage(c)
	if err != nil {
		return Side{}, nil, err
	}

	start := time.Now()
	var mark vtime.Mark
	if vc != nil {
		mark = vc.Mark()
	}
	collect, err := run(env)
	if err != nil {
		return Side{}, nil, fmt.Errorf("bench: %s on %s: %w", w.Name, side, err)
	}
	s := Side{Wall: time.Since(start)}
	s.Time = s.Wall
	if vc != nil {
		s.Time, s.Imbalance = vc.Since(mark), laneImbalance(vc.LanesSince(mark))
	}
	s.Metrics, s.Trace = c.Metrics().Snapshot(), tr.Events()
	out, err := collect()
	if err != nil {
		return Side{}, nil, fmt.Errorf("bench: %s on %s: reading the answer: %w", w.Name, side, err)
	}
	return s, out, nil
}

// RunRow measures one row on both engines and holds both answers to the
// row's reference. A variant (the zero Variant: none) runs on the HAMR side
// against the same baseline and is reported next to the paper's number for
// it, where the paper printed one.
func (h *Harness) RunRow(w *apps.Workload, v apps.Variant) (Row, error) {
	data, r := h.input(w, v)
	mr, mrOut, err := h.sideMR(w, data, r)
	if err != nil {
		return Row{}, err
	}
	hamr, hamrOut, err := h.sideHAMR(w, data, r)
	if err != nil {
		return Row{}, err
	}
	ref := w.Reference(data, r)
	for _, side := range []struct {
		name string
		out  apps.Output
	}{{apps.SideMR, mrOut}, {apps.SideHAMR, hamrOut}} {
		if err := w.Check(ref, side.name, side.out); err != nil {
			return Row{}, err
		}
		h.Checked += len(side.out)
	}
	paper := w.Paper
	if v.Paper != nil {
		paper = *v.Paper
	}
	return Row{
		Benchmark: w.Name,
		DataSize:  paper.DataSize,
		MR:        mr,
		HAMR:      hamr,
		Speedup:   mr.Time.Seconds() / hamr.Time.Seconds(),
		Paper:     paper,
		Modeled:   h.Spec.VClock,
	}, nil
}

// Table2 measures every row.
func (h *Harness) Table2() ([]Row, error) {
	rows := make([]Row, 0, len(apps.Table))
	for _, w := range apps.Table {
		row, err := h.RunRow(w, apps.Variant{})
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3 measures the combiner ablation: HAMR with combiner against the
// same IDH baseline, for the rows the paper printed one for.
func (h *Harness) Table3() ([]Row, error) {
	var rows []Row
	for _, w := range apps.Table {
		for _, v := range w.Variants {
			if v.Paper == nil {
				continue
			}
			row, err := h.RunRow(w, v)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Figure3 selects the rows drawn in one of the two speedup figures' panels
// ("3a" or "3b").
func Figure3(rows []Row, panel string) []Row {
	var out []Row
	for _, r := range rows {
		if w := apps.Lookup(string(r.Benchmark)); w != nil && w.Panel == panel {
			out = append(out, r)
		}
	}
	return out
}
