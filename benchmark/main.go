// Command benchmark is the repo benchmark: five Table-2-shaped workloads
// run on both engines (HAMR flowlets and the MapReduce baseline) under the
// virtual clock, reporting modeled vs host time per engine, and per-layer
// attribution from substrate counters, a traced pair and host-side layer
// probes. See README.md beside this file.
//
//	go run . -workload wordcount [-seed S] [-pairs N | -seconds T] [-trace 1] [-out f.json]
//	go run . -all        # five workloads with their traced pairs + layer probes
//	go run . -selfcheck  # two full sets, medians must agree within the bounds
//	go run . -list       # every metric name with its unit
//	go run . -manifest   # BENCHMARK.json, generated from the declarations
//
// The contract runner (BENCHMARK.json) calls it through run.sh as
// `--workload W --seed N --seconds T --trace 0|1` and reads the last line
// of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// header is printed above every report and carried in -out files.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Clock      string `json:"clock"`
}

// report is the -out file.
type report struct {
	Header    header             `json:"header"`
	Workloads []*result          `json:"workloads"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// contractLine is the last line of standard output for a single-workload
// run, in the shape the benchmark contract fixes.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", "))
		all       = flag.Bool("all", false, "run the five workloads (with their traced pairs) and the layer probes")
		list      = flag.Bool("list", false, "print every metric name with its unit and exit")
		printSpec = flag.Bool("manifest", false, "print BENCHMARK.json as these declarations define it and exit")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets back to back and require their medians to agree within each metric's bound")
		seed      = flag.Int64("seed", 1, "drives every datagen seed")
		pairs     = flag.Int("pairs", 0, "timed pairs per workload (default 20 unless -seconds is given)")
		seconds   = flag.Float64("seconds", 0, "measure for this long instead (never fewer than 20 timed pairs)")
		traceFlag = flag.Int("trace", 0, "1: add the traced pair and the layer probes, and print per-layer metrics on the last line")
		outFile   = flag.String("out", "", "write the full JSON report here")
		outDir    = flag.String("outdir", "benchmark/out", "where a traced run writes Chrome traces and the benchmark's own spans")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf(2, "unexpected argument %q", flag.Arg(0))
	}
	if *list {
		printList(os.Stdout)
		return
	}
	if *printSpec {
		data, err := json.MarshalIndent(newManifest(), "", "  ")
		if err != nil {
			fatalf(1, "%v", err)
		}
		fmt.Println(string(data))
		return
	}

	cfg := config{
		seed: *seed, sizes: defaultSizes(), pairs: *pairs,
		budget: time.Duration(*seconds * float64(time.Second)),
		golden: *seed == goldenSeed, outDir: *outDir, progress: os.Stderr,
	}
	if cfg.pairs == 0 && cfg.budget == 0 {
		cfg.pairs = minTimedPairs
	}
	hdr := header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: *seed, Clock: "vtime.NewVirtual(8).SetRealHold(Startup): modeled seconds; host = CPU seconds, wall seconds and bytes of this process",
	}
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d %s seed=%d\n", hdr.NProc, hdr.GOMAXPROCS, hdr.GoVersion, hdr.Seed)

	switch {
	case *selfcheck:
		var only []*workload
		if *name != "" {
			only = []*workload{mustWorkload(*name)}
		}
		if !selfCheck(cfg, only) {
			os.Exit(1)
		}
	case *all:
		cfg.traced = true
		rep := report{Header: hdr}
		ok := true
		for i := range workloads {
			res, err := runWorkload(&workloads[i], cfg)
			if err != nil {
				fatalf(1, "%v", err)
			}
			printResult(os.Stdout, res)
			rep.Workloads = append(rep.Workloads, res)
			ok = ok && res.Correct
		}
		layers, err := runProbes()
		if err != nil {
			fatalf(1, "%v", err)
		}
		rep.Layers = layers
		printProbes(os.Stdout, layers)
		writeReport(*outFile, rep)
		if !ok {
			os.Exit(1)
		}
	case *name != "":
		w := mustWorkload(*name)
		cfg.traced = *traceFlag != 0
		res, err := runWorkload(w, cfg)
		if err != nil {
			fatalf(1, "%v", err)
		}
		rep := report{Header: hdr, Workloads: []*result{res}}
		if cfg.traced {
			if rep.Layers, err = runProbes(); err != nil {
				fatalf(1, "%v", err)
			}
		}
		printResult(os.Stdout, res)
		if cfg.traced {
			printProbes(os.Stdout, rep.Layers)
		}
		writeReport(*outFile, rep)
		if !res.Correct {
			fatalf(1, "%s: %d of %d calls failed", w.Name, res.Failed, res.Attempted)
		}
		line, err := json.Marshal(contract(res, rep.Layers, cfg.traced))
		if err != nil {
			fatalf(1, "%v", err)
		}
		fmt.Println(string(line))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func mustWorkload(name string) *workload {
	w := findWorkload(name)
	if w == nil {
		fatalf(2, "unknown workload %q; choices: %s", name, strings.Join(workloadNames(), ", "))
	}
	return w
}

// contract builds the last output line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func contract(res *result, layers map[string]float64, traced bool) contractLine {
	line := contractLine{
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]contractValue{},
	}
	if !traced {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = contractValue{res.EndToEnd[m.Name].Value, m.Unit}
		}
		return line
	}
	for _, m := range perLayer() {
		v, ok := layers[m.Name]
		if !ok {
			v = res.PerLayer[m.Name].Value
		}
		line.Metrics[m.Name] = contractValue{v, m.Unit}
	}
	return line
}

func writeReport(path string, rep report) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fatalf(1, "write %s: %v", path, err)
	}
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "end-to-end (every workload; bound = share of the parent's median it may worsen by):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-6s %-6s bound %.0f%%  %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Meaning)
	}
	fmt.Fprintln(w, "  speedup_modeled              ratio  (mr_modeled_s / hamr_modeled_s; printed, not gated)")
	fmt.Fprintln(w, "per-layer:")
	for _, m := range perLayer() {
		fmt.Fprintf(w, "  %-40s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s  seed=%d  timed pairs=%d  calls=%d failed=%d  digest=%s\n",
		res.Workload, res.Seed, res.Pairs, res.Attempted, res.Failed, res.Digest)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if res.Pairs == 0 {
		return
	}
	fmt.Fprintf(w, "  %-16s %12s %-5s %4s %12s %12s %8s  %s\n", "end-to-end", "median", "unit", "n", "q1", "q3", "iqr/med", "high pct")
	for _, m := range endToEnd {
		s := res.EndToEnd[m.Name]
		fmt.Fprintf(w, "  %-16s %12.6f %-5s %4d %12.6f %12.6f %7.2f%%  %s=%.6f\n",
			m.Name, s.Value, s.Unit, s.N, s.Q1, s.Q3, 100*s.spread(), s.PHiLabel, s.PHi)
	}
	if s := res.EndToEnd["hamr_modeled_s"]; s.PHiLabel == "p50" {
		fmt.Fprintf(w, "  (n=%d: the highest percentile with ten samples beyond it is the median itself)\n", s.N)
	}
	for _, e := range engines {
		fmt.Fprintf(w, "  %s host cost per call (reported, not gated): cpu %.6f s, wall %.6f s\n",
			e, res.PerLayer[e+".host.cpu_s"].Value, res.PerLayer[e+".host.wall_s"].Value)
	}
	fmt.Fprintf(w, "  speedup_modeled = %.2fx", res.SpeedupModeled)
	if res.PaperSpeedup > 0 {
		fmt.Fprintf(w, "   (paper Table 2: %.2fx)", res.PaperSpeedup)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "  modeled seconds charged per resource, summed over nodes, and as shares of the engine's charged total:")
	for _, e := range engines {
		var total float64
		for _, res2 := range []string{"disk", "net", "cpu", "startup", "contention"} {
			total += res.PerLayer[e+".vtime."+res2+"_s"].Value
		}
		fmt.Fprintf(w, "    %-5s", e)
		for _, res2 := range []string{"disk", "net", "cpu", "startup", "contention"} {
			v := res.PerLayer[e+".vtime."+res2+"_s"].Value
			share := 0.0
			if total > 0 {
				share = 100 * v / total
			}
			fmt.Fprintf(w, "  %s %.4fs (%.1f%%)", res2, v, share)
		}
		fmt.Fprintf(w, "  | elapsed %.4fs\n", res.EndToEnd[e+"_modeled_s"].Value)
	}

	fmt.Fprintln(w, "  per-layer (median over the timed pairs; '=' all samples equal, '~' they varied; trace.* from the one traced pair):")
	for _, m := range perLayer() {
		s, ok := res.PerLayer[m.Name]
		if !ok {
			continue
		}
		mark := "~"
		if s.AllEqual {
			mark = "="
		}
		fmt.Fprintf(w, "    %-36s %14.6g %-6s %s\n", m.Name, s.Value, s.Unit, mark)
	}
}

func printProbes(w io.Writer, layers map[string]float64) {
	fmt.Fprintln(w, "\n== layers (host-side unit probes, fixed op counts, zero-cost substrates)")
	for _, p := range probes {
		for _, m := range p.Metrics {
			fmt.Fprintf(w, "    %-36s %14.6g %-6s\n", m.Name, layers[m.Name], m.Unit)
		}
	}
}

// exactOnHAMR are the HAMR counts that repeat exactly from run to run, so
// two builds can be compared on them bit for bit. The other HAMR counts
// (bins, messages, gating, spills) depend on goroutine scheduling.
var exactOnHAMR = []string{
	"hamr.core.shuffle_kvs", "hamr.core.shuffle_mb", "hamr.core.bins_dropped", "hamr.core.refires", "hamr.storage.read_mb",
}

// selfCheck is the repeatability proof: two full sets of the same build,
// every workload x end-to-end metric within its bound, exact HAMR counts
// equal. It prints the offending pairs and reports whether all agreed.
func selfCheck(cfg config, only []*workload) bool {
	if len(only) == 0 {
		for i := range workloads {
			only = append(only, &workloads[i])
		}
	}
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, w := range only {
			res, err := runWorkload(w, cfg)
			if err != nil {
				fatalf(1, "%v", err)
			}
			sets[i][w.Name] = res
		}
	}
	ok := true
	fmt.Printf("\nselfcheck: set A vs set B (same build, seed %d)\n", cfg.seed)
	fmt.Printf("  %-18s %-16s %12s %12s %8s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, w := range only {
		a, b := sets[0][w.Name], sets[1][w.Name]
		if !a.Correct || !b.Correct {
			fmt.Printf("  %-18s FAILED calls: A %d/%d, B %d/%d\n", w.Name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			ok = false
			continue
		}
		for _, m := range endToEnd {
			va, vb := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := ""
			if diff >= m.Bound {
				verdict, ok = "  <-- exceeds bound", false
			}
			fmt.Printf("  %-18s %-16s %12.6f %12.6f %7.2f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
		for _, name := range []string{"hamr.host.cpu_s", "mr.host.cpu_s"} {
			va, vb := a.PerLayer[name].Value, b.PerLayer[name].Value
			fmt.Printf("  %-18s %-16s %12.6f %12.6f %7.2f%%  (not gated)\n", w.Name, name, va, vb, 100*math.Abs(va-vb)/math.Min(va, vb))
		}
		for _, name := range exactOnHAMR {
			sa, sb := a.PerLayer[name], b.PerLayer[name]
			if !sa.AllEqual || !sb.AllEqual || sa.Value != sb.Value {
				fmt.Printf("  %-18s %-16s %12g %12g  <-- count must repeat exactly\n", w.Name, name, sa.Value, sb.Value)
				ok = false
			}
		}
	}
	if ok {
		fmt.Println("selfcheck: PASS")
	} else {
		fmt.Println("selfcheck: FAIL")
	}
	return ok
}
