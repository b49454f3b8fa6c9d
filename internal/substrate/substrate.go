// Package substrate holds what the simulated cluster's layers share: the
// clock that pays every modeled delay, the span recorder, the fault
// injector and the metrics registry. cluster.New
// builds one Handle and hands it down whole to HDFS and to both engines, so
// a comparison between the engines cannot differ in any of them.
package substrate

import (
	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/trace"
	"github.com/hamr-go/hamr/internal/vtime"
)

// Handle is the shared substrate. Trace and Faults may be nil — every
// method of both is a nil-safe no-op.
type Handle struct {
	// Clock pays modeled delays: vtime.Real sleeps, a *vtime.VirtualClock
	// advances per-node logical clocks.
	Clock   vtime.Clock
	Trace   *trace.Tracer
	Faults  *faults.Injector
	Metrics *metrics.Registry
}

// Fill supplies the real clock and a private registry where there is none,
// for a layer built without a cluster.
func (h *Handle) Fill() {
	if h.Clock == nil {
		h.Clock = vtime.Real()
	}
	if h.Metrics == nil {
		h.Metrics = metrics.NewRegistry()
	}
}
