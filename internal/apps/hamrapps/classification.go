package hamrapps

import (
	"fmt"
	"strconv"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
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
	rec, ok := datagen.ParseMovie(kv.Value.(string))
	if !ok || len(rec.Ratings) == 0 {
		return nil
	}
	best, _ := BestCluster(rec, m.Centroids)
	return ctx.EmitTo("assign", core.KV{Key: strconv.Itoa(best), Value: rec.ID})
}

// ClassificationOptions configures the benchmark.
type ClassificationOptions struct {
	Files     map[int][]string
	Centroids []Centroid
	// AssignmentSink overrides the local assignment output.
	AssignmentSink core.Sink
}

// ClassificationSinks carries the outputs.
type ClassificationSinks struct {
	// Assignments receives (clusterID, movieID) pairs; nil when overridden.
	Assignments *core.CollectSink
}

// BuildClassification constructs the Classification graph.
func BuildClassification(opts ClassificationOptions) (*core.Graph, *ClassificationSinks, error) {
	if len(opts.Centroids) == 0 {
		return nil, nil, fmt.Errorf("hamrapps: classification needs centroids")
	}
	g := core.NewGraph("classification")
	sinks := &ClassificationSinks{Assignments: core.NewCollectSink()}
	var assignSink core.Sink = sinks.Assignments
	if opts.AssignmentSink != nil {
		assignSink = opts.AssignmentSink
		sinks.Assignments = nil
	}
	ld, err := g.AddLoader("load", &LocalTextLoader{Files: opts.Files})
	if err != nil {
		return nil, nil, err
	}
	cl, err := g.AddMap("classify", &Classify{Centroids: opts.Centroids})
	if err != nil {
		return nil, nil, err
	}
	asn, err := g.AddSink("assign", assignSink)
	if err != nil {
		return nil, nil, err
	}
	if err := g.Connect(ld, cl, core.WithRouting(core.RouteLocal)); err != nil {
		return nil, nil, err
	}
	if err := g.Connect(cl, asn); err != nil {
		return nil, nil, err
	}
	return g, sinks, nil
}
