package hamrapps

import (
	"fmt"
	"strings"

	"github.com/hamr-go/hamr/internal/core"
)

// NaiveBayes training, Algorithm 4: one job with three flowlets replacing
// the two Hadoop jobs of the Mahout implementation.
//
//	TextLoader -> IndexInstances(map) -> VectorSum(partial reduce)
//	           -> WeightSum(partial reduce) -> sink
//
// Output keys: "labelweight|<label>" (total feature weight per label) and
// "featureweight|<feature>" (total weight per feature), the sufficient
// statistics the Mahout trainer materializes.

// wordVec is a sparse feature-count vector used as partial-reduce state.
type wordVec map[string]int64

// SizeBytes implements core.Sizer for memory accounting.
func (v wordVec) SizeBytes() int64 {
	n := int64(48)
	for k := range v {
		n += int64(len(k)) + 24
	}
	return n
}

// IndexInstances parses "label<TAB>w w w" lines into (label, words).
type IndexInstances struct{}

// Map implements core.Mapper.
func (IndexInstances) Map(kv core.KV, ctx core.Context) error {
	line := kv.Value.(string)
	tab := strings.IndexByte(line, '\t')
	if tab <= 0 {
		return nil
	}
	label := line[:tab]
	words := strings.Fields(line[tab+1:])
	if len(words) == 0 {
		return nil
	}
	return ctx.Emit(core.KV{Key: label, Value: words})
}

// VectorSum folds per-label word vectors; on finish it emits the per-label
// total weight and per-feature weights for the downstream weight sum.
type VectorSum struct{}

// UpdateWeight implements core.UpdateCoster: summing one document's vector
// writes many elements of the shared per-label accumulator, though under a
// single lock acquisition (hence the /8 amortization).
func (VectorSum) UpdateWeight(value any) int {
	if words, ok := value.([]string); ok {
		return 1 + len(words)/8
	}
	return 1
}

// Update implements core.PartialReducer.
func (VectorSum) Update(key string, state, value any) (any, error) {
	vec, _ := state.(wordVec)
	if vec == nil {
		vec = make(wordVec)
	}
	words, ok := value.([]string)
	if !ok {
		return nil, fmt.Errorf("hamrapps: VectorSum got %T, want []string", value)
	}
	for _, w := range words {
		vec[w]++
	}
	return vec, nil
}

// Finish implements core.PartialReducer.
func (VectorSum) Finish(label string, state any, ctx core.Context) error {
	vec := state.(wordVec)
	var total int64
	for w, n := range vec {
		total += n
		if err := ctx.EmitTo("weightsum", core.KV{Key: w, Value: n}); err != nil {
			return err
		}
	}
	return ctx.EmitTo("out", core.KV{Key: "labelweight|" + label, Value: total})
}

// WeightSum folds per-feature weights.
type WeightSum struct{}

// Update implements core.PartialReducer.
func (WeightSum) Update(key string, state, value any) (any, error) {
	return SumCounts{}.Update(key, state, value)
}

// Finish implements core.PartialReducer.
func (WeightSum) Finish(feature string, state any, ctx core.Context) error {
	return ctx.Emit(core.KV{Key: "featureweight|" + feature, Value: state.(*count).n})
}

// BuildNaiveBayes constructs the Algorithm 4 graph.
func BuildNaiveBayes(loader core.Loader) (*core.Graph, *core.CollectSink, error) {
	// Documents are parsed on the node holding them (§3.3).
	g, sink, err := core.NewPipeline("naivebayes", "load", loader).
		Via(core.WithRouting(core.RouteLocal)).
		Map("index", IndexInstances{}).
		PartialReduce("vectorsum", VectorSum{}).
		PartialReduce("weightsum", WeightSum{}).
		Collect()
	if err != nil {
		return nil, nil, err
	}
	// VectorSum emits label weights straight to the sink (multi-output,
	// §3.2's "flexible input/output way").
	return g, sink, g.Connect(g.FlowletID("vectorsum"), g.FlowletID("out"))
}
