package kernel

import (
	"reflect"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/core"
)

// collect runs a kernel and returns the keys it emitted, in order.
func collect(t *testing.T, run func(emit func(core.KV) error) error) ([]string, error) {
	t.Helper()
	var keys []string
	err := run(func(kv core.KV) error {
		if kv.Value != int64(1) {
			t.Errorf("pair %q carries %v, want int64(1)", kv.Key, kv.Value)
		}
		keys = append(keys, kv.Key)
		return nil
	})
	return keys, err
}

func TestExtend(t *testing.T) {
	adj := func(vs ...int64) map[int64]bool {
		m := map[int64]bool{}
		for _, v := range vs {
			m[v] = true
		}
		return m
	}
	for _, tc := range []struct {
		clique string
		adj    map[int64]bool // the newest vertex's neighbors
		k      int
		want   string // emitted keys, space-separated
		err    bool
	}{
		{"5", adj(9, 1, 7), 2, "5,7 5,9", false},       // a vertex seeds its 2-cliques upwards
		{"0,1", adj(3, 0, 2), 3, "0,1,2 0,1,3", false}, // extended in ascending order
		{"0,1", adj(2, 3), 3, "", false},               // 0 is no neighbor of 1: no clique
		{"0,1,2", adj(0, 1), 3, "0,1,2", false},        // a valid k-clique is output whole
		{"0,1,2", adj(1), 3, "", false},
		{"0,1,2", nil, 3, "", false}, // no adjacency at all
		{"0,x", adj(0), 3, "", true},
	} {
		keys, err := collect(t, func(emit func(core.KV) error) error { return Extend(tc.clique, tc.adj, tc.k, emit) })
		if got := strings.Join(keys, " "); got != tc.want || (err != nil) != tc.err {
			t.Errorf("Extend(%q, %v, %d) = %q, %v; want %q, error %v", tc.clique, tc.adj, tc.k, got, err, tc.want, tc.err)
		}
	}
}

func TestEdgeLines(t *testing.T) {
	for _, tc := range []struct {
		line     string
		ok, bad  bool // an edge; an error
		directed string
	}{
		{"0 1", true, false, "0>1"},
		{" 7\t12 ", true, false, "7>12"},
		{"", false, false, ""},
		{"   ", false, false, ""},
		{"3 3", true, false, "3>3"}, // a self loop is a PageRank edge, no K-Cliques edge
		{"0 1 2", false, true, ""},
		{"0", false, true, ""},
	} {
		src, dst, ok, err := EdgeLine(tc.line)
		if ok != tc.ok || (err != nil) != tc.bad || (ok && src+">"+dst != tc.directed) {
			t.Errorf("EdgeLine(%q) = %q, %q, %v, %v", tc.line, src, dst, ok, err)
		}
		e, ok, err := UndirectedEdge(tc.line)
		wantOK := tc.ok && tc.line != "3 3"
		if ok != wantOK || (err != nil) != tc.bad || (ok && (e.U+">"+e.V != tc.directed || e.UID == e.VID)) {
			t.Errorf("UndirectedEdge(%q) = %+v, %v, %v", tc.line, e, ok, err)
		}
	}
	if _, ok, err := UndirectedEdge("a 1"); ok || err == nil {
		t.Errorf("UndirectedEdge accepted a vertex that is no id: %v, %v", ok, err)
	}
}

// TestMedoid: the upper median by (similarity, id), whatever order the
// members arrive in.
func TestMedoid(t *testing.T) {
	ms := []Member{{0.5, "c", "r1"}, {0.1, "a", "r2"}, {0.5, "b", "r3"}, {0.9, "d", "r4"}}
	if got := Medoid(ms); got.Ref != "r1" {
		t.Errorf("Medoid = %+v, want the member at index 2 of (0.1 a) (0.5 b) (0.5 c) (0.9 d)", got)
	}
	want := []Member{{0.1, "a", "r2"}, {0.5, "b", "r3"}, {0.5, "c", "r1"}, {0.9, "d", "r4"}}
	if !reflect.DeepEqual(ms, want) {
		t.Errorf("members ordered %+v, want %+v", ms, want)
	}
}
