// Command hamrbench regenerates the paper's evaluation: Table 1 (cluster
// spec), Table 2 (eight-benchmark comparison between the MapReduce
// baseline and HAMR), Table 3 (HAMR with combiner) and Figure 3's two
// speedup panels. Measured numbers print side by side with the published
// ones; a shape check asserts the qualitative agreement the reproduction
// targets. Every row it times is also a row it checks: both engines' answers
// are held to the row's single-threaded reference (internal/apps), and a
// disagreement is an error and a non-zero exit.
//
// Usage:
//
//	hamrbench                  # everything (Table 1, 2, 3, Fig 3a, 3b)
//	hamrbench -table 2         # one table
//	hamrbench -figure 3a       # one figure panel
//	hamrbench -bench PageRank  # one Table 2 row
//	hamrbench -scale tiny      # smaller inputs (fast smoke run)
//	hamrbench -vclock          # virtual clock: modeled seconds, no sleeps
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/hamr-go/hamr/internal/apps"
	"github.com/hamr-go/hamr/internal/bench"
	"github.com/hamr-go/hamr/internal/trace"
)

func main() {
	var (
		table   = flag.String("table", "", "regenerate one table: 1, 2 or 3 (default: all)")
		figure  = flag.String("figure", "", "regenerate one figure panel: 3a or 3b")
		one     = flag.String("bench", "", "run a single Table 2 benchmark by name")
		scale   = flag.String("scale", "small", "input scale: tiny or small")
		vclock  = flag.Bool("vclock", false, "run under the virtual clock: modeled delays advance logical clocks instead of sleeping, tables report modeled seconds")
		traceTo = flag.String("trace", "", "with -bench: record per-task spans, write Chrome trace JSON per engine (PATH.mr.json / PATH.hamr.json) and print each engine's critical path")
	)
	flag.Parse()

	spec := bench.DefaultSpec()
	spec.VClock = *vclock
	var sc bench.Scale
	switch strings.ToLower(*scale) {
	case "tiny":
		sc = bench.TinyScale()
	case "small":
		sc = bench.SmallScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q (want tiny or small)\n", *scale)
		os.Exit(2)
	}

	// The one row -bench names (nil: none).
	var row *apps.Workload
	if *one != "" {
		if row = apps.Lookup(*one); row == nil {
			var names []string
			for _, w := range apps.Table {
				names = append(names, string(w.Name))
			}
			fmt.Fprintf(os.Stderr, "unknown benchmark %q; choices: %v\n", *one, names)
			os.Exit(2)
		}
	}

	h := bench.NewHarness(spec, sc)
	if *traceTo != "" {
		if row == nil {
			fmt.Fprintln(os.Stderr, "hamrbench: -trace requires -bench NAME (one benchmark per trace)")
			os.Exit(2)
		}
		h.Trace = true
	}

	if row != nil {
		r, err := h.RunRow(row, apps.Variant{})
		if err != nil {
			fatal(err)
		}
		bench.WriteTable2(os.Stdout, []bench.Row{r})
		fmt.Println()
		bench.WriteTimeReport(os.Stdout, []bench.Row{r})
		fmt.Println()
		bench.WriteIOReport(os.Stdout, r.MR.Metrics)
		if *traceTo != "" {
			if err := exportTrace(r.MR.Trace, *traceTo, "mr"); err != nil {
				fatal(err)
			}
			if err := exportTrace(r.HAMR.Trace, *traceTo, "hamr"); err != nil {
				fatal(err)
			}
		}
		return
	}

	wantTable := func(t string) bool { return *table == "" && *figure == "" || *table == t }
	wantFigure := func(f string) bool { return *table == "" && *figure == "" || *figure == f }

	if wantTable("1") {
		bench.WriteTable1(os.Stdout, spec)
		fmt.Println()
	}

	var rows []bench.Row
	needTable2 := wantTable("2") || wantFigure("3a") || wantFigure("3b")
	if needTable2 {
		var err error
		fmt.Fprintln(os.Stderr, "running Table 2 (8 benchmarks x 2 engines)...")
		rows, err = h.Table2()
		if err != nil {
			fatal(err)
		}
	}
	if wantTable("2") {
		bench.WriteTable2(os.Stdout, rows)
		fmt.Println()
		bench.WriteTimeReport(os.Stdout, rows)
		fmt.Println()
		for _, v := range bench.ShapeCheck(rows) {
			fmt.Println(" ", v)
		}
		fmt.Println()
	}
	if wantTable("3") {
		fmt.Fprintln(os.Stderr, "running Table 3 (combiner ablation)...")
		rows3, err := h.Table3()
		if err != nil {
			fatal(err)
		}
		bench.WriteTable3(os.Stdout, rows3)
		fmt.Println()
	}
	if wantFigure("3a") {
		bench.WriteFigure3(os.Stdout, rows, "3a")
		fmt.Println()
	}
	if wantFigure("3b") {
		bench.WriteFigure3(os.Stdout, rows, "3b")
	}
}

// exportTrace writes one engine's Chrome trace JSON next to the -trace
// path (base.ENGINE.json) and prints its critical path.
func exportTrace(evs []*trace.Event, path, engine string) error {
	base := strings.TrimSuffix(path, ".json")
	name := fmt.Sprintf("%s.%s.json", base, engine)
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := trace.WriteJSON(f, evs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\n%s: %d trace events -> %s\ncritical path (%s):\n", engine, len(evs), name, engine)
	trace.WritePathTable(os.Stdout, trace.CriticalPath(evs))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hamrbench:", err)
	os.Exit(1)
}
