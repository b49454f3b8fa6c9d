package bench

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/apps"
	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
)

const graphsGoldenPath = "testdata/graphs.golden"

// routingNames spells core.Routing in the golden.
var routingNames = map[core.Routing]string{
	core.RouteShuffle:   "shuffle",
	core.RouteLocal:     "local",
	core.RouteBroadcast: "broadcast",
}

// graphShape renders a graph as its name, its flowlet set (name:kind, with
// "+serialize" on a flowlet whose updates are serialised) and its edge set
// (from>to:routing), each sorted: flowlet ids and edge order carry no
// meaning (every app flowlet that feeds more than one edge picks it by name
// with EmitTo), so only the sets are held.
func graphShape(g *core.Graph) string {
	var flowlets, edges []string
	for _, f := range g.Flowlets() {
		s := f.Name + ":" + f.Kind.String()
		if f.SerializeUpdates {
			s += "+serialize"
		}
		flowlets = append(flowlets, s)
	}
	for _, e := range g.Edges() {
		edges = append(edges, fmt.Sprintf("%s>%s:%s", g.Flowlets()[e.From].Name, g.Flowlets()[e.To].Name, routingNames[e.Routing]))
	}
	sort.Strings(flowlets)
	sort.Strings(edges)
	return "graph=" + g.Name + " " + strings.Join(flowlets, " ") + " " + strings.Join(edges, " ")
}

// appGraphs builds the HAMR graph of every Table 2 row and variant at
// TinyScale, keyed "row" or "row/variant". PageRank is a driver, so both of
// its iteration graphs are built directly.
func appGraphs(t *testing.T) (names []string, shapes map[string]string) {
	t.Helper()
	shapes = map[string]string{}
	add := func(name string, g *core.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names = append(names, name)
		shapes[name] = graphShape(g)
	}
	for _, w := range apps.Table {
		if w.Graph == nil {
			loader := &hamrapps.LocalTextLoader{}
			for _, it := range []string{"first", "later"} {
				g, _, err := hamrapps.BuildPageRankIteration(it == "first", loader)
				add(string(w.Name)+"/"+it, g, err)
			}
			continue
		}
		for _, v := range append([]apps.Variant{{}}, w.Variants...) {
			r := w.NewRun(TinyScale(), nil, v)
			if w.Seeded {
				r.Centroids = []hamrapps.Centroid{datagen.NewCentroid(map[int]float64{1: 1})}
			}
			g, _, err := w.Graph(apps.Env{Run: r})
			name := string(w.Name)
			if v.Name != "" {
				name += "/" + v.Name
			}
			add(name, g, err)
		}
	}
	return names, shapes
}

// TestAppGraphShapes holds the flowlet and edge sets of every app graph to
// testdata/graphs.golden: a builder rewritten for brevity must wire the same
// graph. After an intended change to a graph:
//
//	go test ./internal/bench -run TestAppGraphShapes -update
func TestAppGraphShapes(t *testing.T) {
	names, shapes := appGraphs(t)
	if *update {
		var buf bytes.Buffer
		buf.WriteString("# Flowlet and edge sets of every app graph (TestAppGraphShapes). Rewrite with:\n" +
			"#   go test ./internal/bench -run TestAppGraphShapes -update\n")
		for _, name := range names {
			fmt.Fprintf(&buf, "%s: %s\n", name, shapes[name])
		}
		if err := os.WriteFile(graphsGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(graphsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, shape, ok := strings.Cut(line, ": "); ok && !strings.HasPrefix(line, "#") {
			want[name] = shape
		}
	}
	if len(want) != len(names) {
		t.Errorf("%s has %d graphs, the table builds %d (run with -update)", graphsGoldenPath, len(want), len(names))
	}
	for _, name := range names {
		if d := setDiff(want[name], shapes[name]); d != "" {
			t.Errorf("%s differs from %s:\n%s", name, graphsGoldenPath, d)
		}
	}
}

// setDiff lists the fields of got missing from want and those of want
// missing from got; "" when the two field sets are equal.
func setDiff(want, got string) string {
	count := map[string]int{}
	for _, f := range strings.Fields(want) {
		count[f]++
	}
	for _, f := range strings.Fields(got) {
		count[f]--
	}
	var out []string
	for f, n := range count {
		if n > 0 {
			out = append(out, "  missing "+f)
		} else if n < 0 {
			out = append(out, "  extra   "+f)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
