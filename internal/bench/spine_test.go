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
		{mapreduce.Config{}, 8},
		{mapreduce.Job{}, 7},
		{hdfs.Config{}, 4},
		{transport.CoalescerConfig{}, 2},
	} {
		typ := reflect.TypeOf(cfg.v)
		walk(typ.String(), typ)
		if n := typ.NumField(); n > cfg.budget {
			t.Errorf("%v has %d fields, budget %d", typ, n, cfg.budget)
		}
	}

	clock := reflect.TypeOf((*vtime.Clock)(nil)).Elem()
	if clock.NumMethod() != 1 || clock.Method(0).Name != "Charge" {
		t.Errorf("vtime.Clock has %d methods, want Charge alone: nothing calls anything else through the seam", clock.NumMethod())
	}
}
