package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func TestQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	s := summarize(xs, "s")
	if s.Q1 != 2.75 || s.Value != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize = %+v, want q1 2.75 median 5.5 q3 8.25", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if s.AllEqual {
		t.Error("AllEqual set on varying samples")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if s := summarize([]float64{4, 4, 4}, "count"); !s.AllEqual || s.Value != 4 {
		t.Errorf("constant samples: %+v", s)
	}
	if s := summarize(nil, "s"); s.N != 0 || s.Value != 0 {
		t.Errorf("no samples: %+v", s)
	}
}

func TestHighPercentile(t *testing.T) {
	for n, want := range map[int]float64{3: 0.5, 20: 0.5, 40: 0.75, 100: 0.9, 1000: 0.99} {
		if got := highPercentile(n); math.Abs(got-want) > 1e-12 {
			t.Errorf("highPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs, "s"); s.PHiLabel != "p75" || s.PHi != s.Q3 {
		t.Errorf("n=40: %s=%v, want p75=%v", s.PHiLabel, s.PHi, s.Q3)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest checks the declarations against the contract's limits and
// BENCHMARK.json against the declarations.
func TestManifest(t *testing.T) {
	m := newManifest()
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var haveSetup bool
	for _, d := range m.EndToEnd {
		name(d.Name)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		haveSetup = haveSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		name(d.Name)
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, m) {
		t.Error("BENCHMARK.json differs from the declarations; regenerate it with `go run . -manifest`")
	}
}

// TestSmokeWordCount runs wordcount at bench.TinyScale sizes: one timed
// pair and the traced pair, both engines agreeing, every declared metric
// present, and the contract line round-tripping through JSON.
func TestSmokeWordCount(t *testing.T) {
	cfg := config{seed: 7, sizes: tinySizes(), pairs: 1, traced: true, outDir: t.TempDir(), progress: io.Discard}
	res, err := runWorkload(findWorkload("wordcount"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Pairs != 1 {
		t.Fatalf("pairs=%d failed=%d/%d: %v", res.Pairs, res.Failed, res.Attempted, res.Failures)
	}
	if res.PerLayer["hamr.core.shuffle_kvs"].Value <= 0 {
		t.Error("hamr.core.shuffle_kvs is zero")
	}
	probed := map[string]bool{}
	for _, p := range probes {
		for _, m := range p.Metrics {
			probed[m.Name] = true
		}
	}
	for _, m := range perLayer() {
		if _, ok := res.PerLayer[m.Name]; !ok && !probed[m.Name] {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}

	data, err := json.Marshal(contract(res, nil, false))
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(line); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("contract line keys = %v", got)
	}
	var metrics map[string]contractValue
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if v, ok := metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("end-to-end metric %s = %+v", m.Name, v)
		}
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the line, %d declared", len(metrics), len(endToEnd))
	}
	for _, f := range []string{"wordcount.hamr.trace.json", "wordcount.mr.trace.json", "wordcount.spans.json"} {
		data, err := os.ReadFile(cfg.outDir + "/" + f)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: %d events, err %v", f, len(doc.TraceEvents), err)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
