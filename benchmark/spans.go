package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"github.com/hamr-go/hamr/internal/trace"
)

// The benchmark keeps its own spans around each call it makes into a
// layer — datagen, cluster_new, input_load, run, verify, close — in
// memory, and writes them out when a traced run ends. Every span carries
// its parent's id and the iteration it belongs to; a layer's self time is
// its span minus the part its children cover. Spans inside the program
// are internal/trace's job.

type benchSpan struct {
	ID     int
	Parent int // 0 = root
	Name   string
	Engine string
	Iter   int
	Start  time.Duration // since the log's epoch (host clock)
	Dur    time.Duration
}

type spanLog struct {
	epoch time.Time
	spans []benchSpan
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// start opens a span and returns its id and the function that closes it
// and reports its duration. The benchmark's own timings are these spans.
func (l *spanLog) start(parent int, name, engine string, iter int) (int, func() time.Duration) {
	id := len(l.spans) + 1
	begin := time.Now()
	l.spans = append(l.spans, benchSpan{
		ID: id, Parent: parent, Name: name, Engine: engine, Iter: iter, Start: begin.Sub(l.epoch),
	})
	return id, func() time.Duration {
		d := time.Since(begin)
		l.spans[id-1].Dur = d
		return d
	}
}

// chromeEvent is one trace_event "complete" record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (l *spanLog) writeJSON(path string) error {
	tids := map[string]int{"": 0, "hamr": 1, "mr": 2}
	evs := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: "benchmark", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Tid:  tids[s.Engine],
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "iter": s.Iter, "engine": s.Engine},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Phase families for the overlap and barrier measures (the same families
// internal/bench's trace tests use, plus HAMR's partial-reduce spans).
var (
	hamrLoadSide  = []string{"load"}
	hamrAccSide   = []string{"accumulate", "reduce", "partial"}
	mrMapSide     = []string{"map", "spill", "merge"}
	mrReduceSide  = []string{"reduce", "fetch", "shuffle"}
	criticalLanes = []string{"disk", "net", "cpu", "startup"}
)

// traceAnalysis turns the traced pair into the trace.* metrics. The
// overhead ratio is traced host CPU time over the untraced median.
func traceAnalysis(samples map[string]sample, untraced map[string]summary) map[string]float64 {
	out := make(map[string]float64)
	for _, e := range engines {
		evs := samples[e].events
		breakdown := trace.ResourceBreakdown(trace.CriticalPath(evs))
		for _, res := range criticalLanes {
			out["trace."+e+".critical_"+res+"_s"] = breakdown[res].Seconds()
		}
		out["trace."+e+".overhead_ratio"] = samples[e].cpuS / untraced[e+".host.cpu_s"].Value
		out["trace.events"] += float64(len(evs))
	}
	out["trace.hamr.overlap_fraction"] = trace.OverlapFraction(samples["hamr"].events, hamrLoadSide, hamrAccSide)
	gap, _ := trace.BarrierGap(samples["mr"].events, mrMapSide, mrReduceSide)
	out["trace.mr.barrier_gap_s"] = gap.Seconds()
	return out
}

// writeTraces writes the traced pair's Chrome traces and the benchmark's
// own spans under dir.
func writeTraces(dir, workload string, samples map[string]sample, log *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, e := range engines {
		f, err := os.Create(filepath.Join(dir, workload+"."+e+".trace.json"))
		if err != nil {
			return err
		}
		if err := trace.WriteJSON(f, samples[e].events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return log.writeJSON(filepath.Join(dir, workload+".spans.json"))
}
