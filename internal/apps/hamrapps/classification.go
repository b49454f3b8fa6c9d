package hamrapps

import (
	"fmt"

	"github.com/hamr-go/hamr/internal/apps/kernel"
	"github.com/hamr-go/hamr/internal/core"
)

// Classification (§4): like K-Means but with fixed centroids — assign each
// movie to its closest predetermined cluster. The flowlet version exploits
// data locality exactly as K-Means does: records are read from and results
// written to the local disk, and nothing is shuffled.
//
//	TextLoader -> Classify(map) -> assign sink (local)

// Classify assigns movies to fixed centroids.
type Classify struct {
	Centroids []Centroid
}

// Map implements core.Mapper.
func (m *Classify) Map(kv core.KV, ctx core.Context) error {
	id, cluster, _, ok := kernel.Assign(kv.Value.(string), m.Centroids)
	if !ok {
		return nil
	}
	return ctx.EmitTo("assign", core.KV{Key: cluster, Value: id})
}

// ClassificationOptions configures the benchmark.
type ClassificationOptions struct {
	Files     map[int][]string
	Centroids []Centroid
}

// BuildClassification constructs the Classification graph; assign receives
// the (clusterID, movieID) pairs on each node.
func BuildClassification(opts ClassificationOptions, assign core.Sink) (*core.Graph, error) {
	if len(opts.Centroids) == 0 {
		return nil, fmt.Errorf("hamrapps: classification needs centroids")
	}
	return core.NewPipeline("classification", "load", &LocalTextLoader{Files: opts.Files}).
		Via(core.WithRouting(core.RouteLocal)).
		Map("classify", &Classify{Centroids: opts.Centroids}).
		Sink("assign", assign)
}
