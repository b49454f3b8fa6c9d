package main

import (
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/vtime"
)

// Naming rule: "modeled" is seconds on the vtime.VirtualClock — what the
// modelled 8-node cluster would take, the paper's yardstick. "host" is what
// the Go process spends simulating it — CPU seconds, wall seconds, bytes
// allocated: the engineered cost under the model. Every metric says which
// in its name.

// metricDef declares one metric: the contract's name/unit/better, the
// regression bound for end-to-end metrics, and a one-line meaning.
type metricDef struct {
	Name    string
	Unit    string
	Better  string
	Bound   float64
	Meaning string
}

// endToEnd lists the gated metrics every workload reports. Two things the
// issue asked for are not here. failed_share: the contract forbids a metric
// that is 0 on every healthy run, and carries it as failed/attempted. Host
// time per engine: it is reported per layer ({hamr,mr}.host.cpu_s and
// .wall_s) but not gated, because on this two-core shared sandbox its
// median moved by up to 38 % between two ten-run studies of the same code,
// which no bound the contract allows (<= 25 %) survives, and a gated
// metric cannot be withdrawn later while an ungated one can be promoted.
//
// A bound has to cover the metric's quartile spread over ten runs at ten
// different seeds on its least steady workload, three times over. That is
// why the modeled bounds are wider than the 3 % the issue proposed for
// same-seed runs: hamr_modeled_s follows kmeans, whose HAMR row moves ~3 %
// with where the seed puts the new centroids' records (at one seed it
// repeats to 0.1 %); mr_modeled_s follows pagerank (1.1 %).
var endToEnd = []metricDef{
	{"hamr_modeled_s", "s", "lower", 0.12, "modeled: median VirtualClock.Since(mark) of the HAMR job(s) of the row"},
	{"mr_modeled_s", "s", "lower", 0.05, "modeled: same, MapReduce baseline (chains counted whole)"},
	{"hamr_alloc_mb", "MB", "lower", 0.04, "host: median MemStats.TotalAlloc delta across the HAMR call"},
	{"mr_alloc_mb", "MB", "lower", 0.04, "host: same, MR"},
	{"setup_s", "s", "lower", 0.25, "host: process CPU time of datagen (median of 5) + per pair (cluster.New + input load, both engines; median)"},
}

const mb = 1.0 / (1 << 20)

// counterMetric maps one substrate counter (or timer, or clock lane) to a
// per-layer metric. Engines says whose run it is read from.
type counterMetric struct {
	Suffix  string // appended to "hamr." / "mr."
	Unit    string
	Better  string
	Engines string // "hamr", "mr" or "both"
	Counter string // metrics registry counter, scaled by Scale
	Timer   string // metrics registry timer, reported in seconds
	Lane    int    // vtime resource + 1 (0 = none)
	Scale   float64
}

func lane(r vtime.Resource) int { return int(r) + 1 }

var counterMetrics = []counterMetric{
	// vtime lanes: busy time per resource summed over nodes — the
	// "every second attributed" table, printed as shares of the total.
	{Suffix: "vtime.disk_s", Unit: "s", Better: "lower", Engines: "both", Lane: lane(vtime.Disk)},
	{Suffix: "vtime.net_s", Unit: "s", Better: "lower", Engines: "both", Lane: lane(vtime.Net)},
	{Suffix: "vtime.cpu_s", Unit: "s", Better: "lower", Engines: "both", Lane: lane(vtime.CPU)},
	{Suffix: "vtime.startup_s", Unit: "s", Better: "lower", Engines: "both", Lane: lane(vtime.Startup)},
	{Suffix: "vtime.contention_s", Unit: "s", Better: "lower", Engines: "both", Lane: lane(vtime.Contention)},
	// core
	{Suffix: "core.shuffle_kvs", Unit: "count", Better: "lower", Engines: "hamr", Counter: "shuffle.kvs"},
	{Suffix: "core.shuffle_mb", Unit: "MB", Better: "lower", Engines: "hamr", Counter: "shuffle.bytes", Scale: mb},
	{Suffix: "core.bins_sent", Unit: "count", Better: "lower", Engines: "hamr", Counter: "bins.sent"},
	{Suffix: "core.flow_gated", Unit: "count", Better: "lower", Engines: "hamr", Counter: "flow.gated"},
	{Suffix: "core.partial_contention_s", Unit: "s", Better: "lower", Engines: "hamr", Timer: "partial.contention"},
	{Suffix: "core.reduce_spills", Unit: "count", Better: "lower", Engines: "hamr", Counter: "reduce.spills"},
	{Suffix: "core.reduce_spill_mb", Unit: "MB", Better: "lower", Engines: "hamr", Counter: "reduce.spill.bytes", Scale: mb},
	{Suffix: "core.refires", Unit: "count", Better: "lower", Engines: "hamr", Counter: "flowlet.refires"},
	{Suffix: "core.bins_dropped", Unit: "count", Better: "lower", Engines: "hamr", Counter: "bins.dropped"},
	// transport
	{Suffix: "transport.net_msgs", Unit: "count", Better: "lower", Engines: "both", Counter: "net.msgs"},
	{Suffix: "transport.net_mb", Unit: "MB", Better: "lower", Engines: "both", Counter: "net.bytes", Scale: mb},
	{Suffix: "transport.net_dropped", Unit: "count", Better: "lower", Engines: "both", Counter: "net.dropped"},
	// storage
	{Suffix: "storage.read_mb", Unit: "MB", Better: "lower", Engines: "both", Counter: "disk.read.bytes", Scale: mb},
	{Suffix: "storage.write_mb", Unit: "MB", Better: "lower", Engines: "both", Counter: "disk.write.bytes", Scale: mb},
	{Suffix: "storage.read_ops", Unit: "count", Better: "lower", Engines: "both", Counter: "disk.read.ops"},
	{Suffix: "storage.write_ops", Unit: "count", Better: "lower", Engines: "both", Counter: "disk.write.ops"},
	// hdfs
	{Suffix: "hdfs.local_mb", Unit: "MB", Better: "higher", Engines: "mr", Counter: "hdfs.bytes.local", Scale: mb},
	{Suffix: "hdfs.remote_mb", Unit: "MB", Better: "lower", Engines: "mr", Counter: "hdfs.bytes.remote", Scale: mb},
	// mapreduce
	{Suffix: "mapreduce.jobs", Unit: "count", Better: "lower", Engines: "mr", Counter: "mr.jobs"},
	{Suffix: "mapreduce.spills", Unit: "count", Better: "lower", Engines: "mr", Counter: "mr.spills"},
	{Suffix: "mapreduce.spill_mb", Unit: "MB", Better: "lower", Engines: "mr", Counter: "mr.spill.bytes", Scale: mb},
	{Suffix: "mapreduce.merge_passes", Unit: "count", Better: "lower", Engines: "mr", Counter: "mr.merge.passes"},
	{Suffix: "mapreduce.shuffle_mb", Unit: "MB", Better: "lower", Engines: "mr", Counter: "mr.shuffle.bytes", Scale: mb},
	{Suffix: "mapreduce.reduce_disk_merges", Unit: "count", Better: "lower", Engines: "mr", Counter: "mr.reduce.disk.merges"},
	{Suffix: "mapreduce.combines", Unit: "count", Better: "lower", Engines: "mr", Counter: "mr.combines"},
	{Suffix: "mapreduce.map_local", Unit: "count", Better: "higher", Engines: "mr", Counter: "mr.map.local"},
	{Suffix: "mapreduce.map_remote", Unit: "count", Better: "lower", Engines: "mr", Counter: "mr.map.remote"},
}

// callMetrics are read around each timed call: its host cost in process
// CPU seconds and in wall seconds (reported, not gated — see endToEnd), and
// YARN's grant counters.
var callMetrics = []metricDef{
	{Name: "hamr.host.cpu_s", Unit: "s", Better: "lower"},
	{Name: "mr.host.cpu_s", Unit: "s", Better: "lower"},
	{Name: "hamr.host.wall_s", Unit: "s", Better: "lower"},
	{Name: "mr.host.wall_s", Unit: "s", Better: "lower"},
	{Name: "mr.yarn.granted", Unit: "count", Better: "lower"},
	{Name: "mr.yarn.waited", Unit: "count", Better: "lower"},
}

// traceMetrics come from the one traced pair per workload.
var traceMetrics = []metricDef{
	{Name: "trace.hamr.critical_disk_s", Unit: "s", Better: "lower"},
	{Name: "trace.hamr.critical_net_s", Unit: "s", Better: "lower"},
	{Name: "trace.hamr.critical_cpu_s", Unit: "s", Better: "lower"},
	{Name: "trace.hamr.critical_startup_s", Unit: "s", Better: "lower"},
	{Name: "trace.mr.critical_disk_s", Unit: "s", Better: "lower"},
	{Name: "trace.mr.critical_net_s", Unit: "s", Better: "lower"},
	{Name: "trace.mr.critical_cpu_s", Unit: "s", Better: "lower"},
	{Name: "trace.mr.critical_startup_s", Unit: "s", Better: "lower"},
	{Name: "trace.hamr.overlap_fraction", Unit: "ratio", Better: "higher"},
	{Name: "trace.mr.barrier_gap_s", Unit: "s", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
	{Name: "trace.hamr.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.mr.overhead_ratio", Unit: "ratio", Better: "lower"},
}

func (m counterMetric) engines() []string {
	if m.Engines == "both" {
		return []string{"hamr", "mr"}
	}
	return []string{m.Engines}
}

// perLayer lists every per-layer metric in output order: substrate
// counters, per-call readings, the traced pair, then the layer probes.
func perLayer() []metricDef {
	var out []metricDef
	for _, m := range counterMetrics {
		for _, e := range m.engines() {
			out = append(out, metricDef{Name: e + "." + m.Suffix, Unit: m.Unit, Better: m.Better})
		}
	}
	out = append(out, callMetrics...)
	out = append(out, traceMetrics...)
	for _, p := range probes {
		out = append(out, p.Metrics...)
	}
	return out
}

// clockBusy snapshots the clock's per-resource busy totals.
func clockBusy(vc *vtime.VirtualClock) map[vtime.Resource]float64 {
	out := make(map[vtime.Resource]float64)
	for _, r := range vtime.Resources() {
		out[r] = vc.Busy(r).Seconds()
	}
	return out
}

// counterDeltas turns before/after snapshots of one engine's run into its
// per-layer counter metrics.
func counterDeltas(engine string, s0, s1 metrics.Snapshot, b0, b1 map[vtime.Resource]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range counterMetrics {
		if m.Engines != "both" && m.Engines != engine {
			continue
		}
		var v float64
		switch {
		case m.Lane > 0:
			r := vtime.Resource(m.Lane - 1)
			v = b1[r] - b0[r]
		case m.Timer != "":
			v = (s1.Timers[m.Timer] - s0.Timers[m.Timer]).Seconds()
		default:
			v = float64(s1.Counters[m.Counter] - s0.Counters[m.Counter])
			if m.Scale != 0 {
				v *= m.Scale
			}
		}
		out[engine+"."+m.Suffix] = v
	}
	return out
}
