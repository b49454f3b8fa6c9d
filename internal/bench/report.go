package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/hamr-go/hamr/internal/apps"
)

// Reporting: render measured rows in the layout of the paper's tables and
// figures, side by side with the published numbers so shape agreement is
// visible at a glance.

// WriteTable1 prints the cluster specification (scaled Table 1).
func WriteTable1(w io.Writer, spec ClusterSpec) {
	fmt.Fprintln(w, "Table 1: Cluster Information (scaled simulation)")
	fmt.Fprintf(w, "  %-28s %v (paper: 16, 1 master + 15 workers)\n", "# of compute nodes", spec.Nodes)
	fmt.Fprintf(w, "  %-28s %v (paper: 32 threads)\n", "workers per node", spec.Core.Workers)
	fmt.Fprintf(w, "  %-28s %v MB (paper: 32 GB)\n", "memory budget per node", spec.Core.MemoryBudget>>20)
	fmt.Fprintf(w, "  %-28s seek %v, read %v MB/s, write %v MB/s (paper: SATA-III)\n",
		"local disk model", spec.Disk.SeekLatency,
		spec.Disk.ReadBytesPerSec>>20, spec.Disk.WriteBytesPerSec>>20)
	fmt.Fprintf(w, "  %-28s latency %v, %v MB/s per receiver (paper: 4x FDR InfiniBand)\n",
		"network model", spec.Net.Latency, spec.Net.BytesPerSec>>20)
	fmt.Fprintf(w, "  %-28s %v\n", "baseline job startup", spec.MapReduce.JobStartup)
}

// WriteTable2 prints measured vs published Table 2.
func WriteTable2(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "Table 2: Performance comparison between IDH 3.0 (baseline engine) and HAMR")
	fmt.Fprintf(w, "  %-18s %-9s %12s %12s %9s | %9s\n",
		"Benchmark", "Data", "IDH", "HAMR", "Speedup", "Paper")
	fmt.Fprintln(w, "  "+strings.Repeat("-", 78))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %-9s %12s %12s %8.2fx | %8.2fx\n",
			r.Benchmark, r.DataSize,
			fmtDur(r.MR.Time), fmtDur(r.HAMR.Time), r.Speedup, r.Paper.Speedup)
	}
}

// WriteTable3 prints the combiner ablation.
func WriteTable3(w io.Writer, rows []Row) {
	fmt.Fprintln(w, "Table 3: Performance of HAMR using Combiner")
	fmt.Fprintf(w, "  %-18s %-9s %12s %9s | %9s\n",
		"Benchmark", "Data", "HAMR", "Speedup", "Paper")
	fmt.Fprintln(w, "  "+strings.Repeat("-", 64))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %-9s %12s %8.2fx | %8.2fx\n",
			r.Benchmark, r.DataSize, fmtDur(r.HAMR.Time), r.Speedup, r.Paper.Speedup)
	}
}

// WriteFigure3 prints an ASCII bar chart of speedups like Figure 3's
// panels (baseline = 1).
func WriteFigure3(w io.Writer, rows []Row, panel string) {
	title := "Figure 3(a): speedup on feature-exploiting benchmarks"
	if panel != "3a" {
		title = "Figure 3(b): speedup on IO-intensive benchmarks"
	}
	fmt.Fprintln(w, title)
	rows = Figure3(rows, panel)
	maxSpeedup := 1.0
	for _, r := range rows {
		if r.Speedup > maxSpeedup {
			maxSpeedup = r.Speedup
		}
		if r.Paper.Speedup > maxSpeedup {
			maxSpeedup = r.Paper.Speedup
		}
	}
	const width = 40
	bar := func(v float64) string {
		n := int(v / maxSpeedup * width)
		if n < 0 {
			n = 0
		}
		if n > width {
			n = width
		}
		return strings.Repeat("#", n)
	}
	fmt.Fprintf(w, "  %-18s %8s  %s\n", "Baseline", "1.00x", bar(1))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %7.2fx  %s\n", r.Benchmark, r.Speedup, bar(r.Speedup))
		fmt.Fprintf(w, "  %-18s %7.2fx  %s\n", "  (paper)", r.Paper.Speedup, bar(r.Paper.Speedup))
	}
}

// WriteIOReport renders the baseline's HDFS read-path accounting from a
// cluster metrics snapshot: where the bytes came from (local disk or remote
// replica) and what crossed the fabric.
func WriteIOReport(w io.Writer, snap interface{ Get(string) int64 }) {
	fmt.Fprintln(w, "HDFS IO report (baseline engine)")
	fmt.Fprintf(w, "  %-24s %d\n", "disk.read.bytes", snap.Get("disk.read.bytes"))
	fmt.Fprintf(w, "  %-24s %d\n", "disk.write.bytes", snap.Get("disk.write.bytes"))
	fmt.Fprintf(w, "  %-24s %d\n", "hdfs.bytes.local", snap.Get("hdfs.bytes.local"))
	fmt.Fprintf(w, "  %-24s %d\n", "hdfs.bytes.remote", snap.Get("hdfs.bytes.remote"))
	fmt.Fprintf(w, "  %-24s %d\n", "net.bytes", snap.Get("net.bytes"))
}

// WriteTimeReport prints wall vs modeled seconds side by side for every
// measured row: "wall" is what producing the row actually cost, the
// plain column is what the tables report. In real-clock mode the pairs
// are equal; under -vclock the wall columns show the suite speedup the
// virtual clock buys, and each engine's "max/mean" column is the row's
// lane imbalance (Side.Imbalance): the node lane that set the modeled
// time over the average one. The seconds say how long; this says whether
// one node was doing the work while the others waited.
func WriteTimeReport(w io.Writer, rows []Row) {
	mode := "real clock (wall == modeled)"
	if len(rows) > 0 && rows[0].Modeled {
		mode = "virtual clock; max/mean = largest node lane over the mean node lane"
	}
	fmt.Fprintf(w, "Time report: wall vs modeled seconds per row (%s)\n", mode)
	fmt.Fprintf(w, "  %-18s %12s %12s %9s %12s %12s %9s\n",
		"Benchmark", "IDH wall", "IDH", "max/mean", "HAMR wall", "HAMR", "max/mean")
	fmt.Fprintln(w, "  "+strings.Repeat("-", 92))
	var wall, modeled float64
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s", r.Benchmark)
		for _, s := range []Side{r.MR, r.HAMR} {
			fmt.Fprintf(w, " %12s %12s %9s", fmtDur(s.Wall), fmtDur(s.Time), fmtImbalance(s.Imbalance))
			wall += s.Wall.Seconds()
			modeled += s.Time.Seconds()
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-18s %12s %12s\n", "total",
		fmt.Sprintf("%.3fs", wall), fmt.Sprintf("%.3fs", modeled))
	if wall > 0 && modeled > wall {
		fmt.Fprintf(w, "  modeled/wall ratio: %.1fx (suite wall-time reduction)\n", modeled/wall)
	}
}

// ShapeCheck compares a measured Table 2 against the paper's expectations
// at the level the reproduction targets: each row's speedup against the
// band its table entry declares, band by band, and one ordering between
// rows. It returns human-readable verdicts.
func ShapeCheck(rows []Row) []string {
	var out []string
	check := func(ok bool, format string, args ...any) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
		}
		out = append(out, fmt.Sprintf("[%s] %s", verdict, fmt.Sprintf(format, args...)))
	}
	byName := map[Benchmark]Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
	}
	for _, band := range apps.Bands {
		for _, r := range rows {
			if w := apps.Lookup(string(r.Benchmark)); w != nil && w.Shape == band {
				check(band.Holds(r.Speedup), "%s: %s (measured %.2fx, paper %.2fx%s)",
					r.Benchmark, band.Claim, r.Speedup, r.Paper.Speedup, band.Expect)
			}
		}
	}
	if a, ok := byName[KMeans]; ok {
		if b, ok2 := byName[WordCount]; ok2 {
			check(a.Speedup > b.Speedup,
				"ordering: iterative K-Means gains more than WordCount (%.2fx > %.2fx)",
				a.Speedup, b.Speedup)
		}
	}
	return out
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// fmtImbalance renders a lane imbalance; the real clock has no lanes.
func fmtImbalance(x float64) string {
	if x == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", x)
}
