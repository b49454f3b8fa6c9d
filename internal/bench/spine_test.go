package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/mapreduce"
	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/transport"
	"github.com/hamr-go/hamr/internal/vtime"
)

// TestConfigsAreTuning keeps the configuration spine from growing back: the
// clock, the tracer and the injector reach a layer in the substrate handle
// cluster.New builds, never as a field of a tuning struct.
func TestConfigsAreTuning(t *testing.T) {
	substrateTypes := map[reflect.Type]bool{
		reflect.TypeOf((*vtime.Clock)(nil)).Elem(): true,
		reflect.TypeOf((*trace.Tracer)(nil)):       true,
		reflect.TypeOf((*faults.Injector)(nil)):    true,
	}
	// Where the substrate comes in: the cluster's own inputs.
	allowed := map[string]bool{
		"cluster.Options.Clock": true,
		"cluster.Options.Trace": true,
	}
	handle := reflect.TypeOf(substrate.Handle{})
	var fields []string
	for i := 0; i < handle.NumField(); i++ {
		fields = append(fields, handle.Field(i).Name)
	}
	if want := []string{"Clock", "Trace", "Faults", "Metrics"}; !slices.Equal(fields, want) {
		t.Errorf("substrate.Handle has fields %v, want exactly %v", fields, want)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if typ == handle {
			return // the one way in: hdfs.Config takes it whole
		}
		if substrateTypes[typ] {
			if !allowed[path] {
				t.Errorf("%s is a %v: substrate belongs in substrate.Handle, not in a config", path, typ)
			}
			return
		}
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
		}
	}
	// A knob budget: adding an option means raising a number here, next to
	// the reason for it.
	for _, cfg := range []struct {
		v      any
		budget int
	}{
		{cluster.Options{}, 11},
		{core.Config{}, 5},
		{mapreduce.Config{}, 5},
		{mapreduce.Job{}, 7},
		{hdfs.Config{}, 4},
		{transport.CoalescerConfig{}, 2},
		{ClusterSpec{}, 7},
	} {
		typ := reflect.TypeOf(cfg.v)
		walk(typ.String(), typ)
		if n := typ.NumField(); n > cfg.budget {
			t.Errorf("%v has %d fields, budget %d", typ, n, cfg.budget)
		}
	}
	// The spec holds each engine's config whole: a field of either, mirrored
	// in the spec, is a second place to set one value.
	spec := reflect.TypeOf(ClusterSpec{})
	for _, engine := range []any{core.Config{}, mapreduce.Config{}} {
		typ := reflect.TypeOf(engine)
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if _, ok := spec.FieldByName(name); ok {
				t.Errorf("ClusterSpec.%s mirrors %v.%s: the spec holds a %v whole", name, typ, name, typ)
			}
		}
	}
	// Every field of an engine's config is a knob some caller turns: a
	// non-test file outside the config's own package (whose FillDefaults
	// is no caller), benchmark/ included, writes it. A field nothing sets
	// has one value, and that is a constant.
	writes := configWrites(t, filepath.Join("..", ".."))
	for _, engine := range []any{core.Config{}, mapreduce.Config{}} {
		typ := reflect.TypeOf(engine)
		caller := func(dir string) bool { return !strings.HasSuffix(typ.PkgPath(), "/"+dir) }
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			if !slices.ContainsFunc(writes[name], caller) {
				t.Errorf("no caller sets %v.%s: a setting nothing changes is a constant", typ, name)
			}
		}
	}
	// DESIGN.md's Settings table is the list of knobs: each field of the four
	// tuning structs has exactly one row, and each row names a field.
	rows := settingsRows(t, filepath.Join("..", "..", "DESIGN.md"))
	for _, cfg := range []any{cluster.Options{}, core.Config{}, mapreduce.Config{}, ClusterSpec{}} {
		typ := reflect.TypeOf(cfg)
		name := typ.String()
		for i := 0; i < typ.NumField(); i++ {
			f := name + "." + typ.Field(i).Name
			if n := rows[f]; n != 1 {
				t.Errorf("DESIGN.md's Settings table has %d rows for %s, want 1", n, f)
			}
			delete(rows, f)
		}
	}
	for f := range rows {
		t.Errorf("DESIGN.md's Settings table has a row for %s, which is no field", f)
	}

	// What a run measured is returned in its Row's sides, never left on the
	// harness for the next run to overwrite.
	var exported []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Harness{})) {
		if f.IsExported() {
			exported = append(exported, f.Name)
		}
	}
	if want := []string{"Spec", "Scale", "Trace", "Checked"}; !slices.Equal(exported, want) {
		t.Errorf("bench.Harness exports %v, want exactly %v", exported, want)
	}

	clock := reflect.TypeOf((*vtime.Clock)(nil)).Elem()
	if clock.NumMethod() != 1 || clock.Method(0).Name != "Charge" {
		t.Errorf("vtime.Clock has %d methods, want Charge alone: nothing calls anything else through the seam", clock.NumMethod())
	}
}

// configWrites maps a field name to the directories, relative to root, of
// the non-test Go files that write a field of that name: as a key of a
// composite literal of a type named Config, or as the selector on the left
// of an assignment. Names are matched without types, so a field of another
// struct that shares the name counts too.
func configWrites(t *testing.T, root string) map[string][]string {
	t.Helper()
	writes := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if !namedConfig(n.Type) {
					break
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							writes[key.Name] = append(writes[key.Name], dir)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						writes[sel.Sel.Name] = append(writes[sel.Sel.Name], dir)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return writes
}

// namedConfig reports whether a composite literal's type is Config or
// pkg.Config.
func namedConfig(typ ast.Expr) bool {
	if sel, ok := typ.(*ast.SelectorExpr); ok {
		typ = sel.Sel
	}
	id, ok := typ.(*ast.Ident)
	return ok && id.Name == "Config"
}

// settingRef is a qualified field in a Settings row's first cell, and
// bareField a field named after one, of the same type.
var (
	settingRef = regexp.MustCompile(`^(cluster\.Options|core\.Config|mapreduce\.Config|bench\.ClusterSpec)\.(\w+)$`)
	bareField  = regexp.MustCompile(`^\w+$`)
)

// settingsRows counts, per qualified field (as reflect spells the type), the
// rows of the table under the Settings heading of the design document at
// path that name it.
func settingsRows(t *testing.T, path string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "#") {
			in = strings.HasSuffix(line, "Settings")
			continue
		}
		if !in || !strings.HasPrefix(line, "| `") {
			continue
		}
		cell, _, _ := strings.Cut(line[1:], "|")
		typ := ""
		for i, tok := range strings.Split(cell, "`") {
			switch m := settingRef.FindStringSubmatch(tok); {
			case i%2 == 0:
			case m != nil:
				typ = m[1]
				rows[typ+"."+m[2]]++
			case typ != "" && bareField.MatchString(tok):
				rows[typ+"."+tok]++
			default:
				typ = ""
			}
		}
	}
	if len(rows) == 0 {
		t.Fatalf("%s: no Settings table rows found", path)
	}
	return rows
}
