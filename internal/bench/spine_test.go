package bench

import (
	"reflect"
	"slices"
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
		{core.Config{}, 8},
		{mapreduce.Config{}, 7},
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
