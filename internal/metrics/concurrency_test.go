package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestMergeWhileSnapshotting merges several per-node registries into one
// cluster registry while another goroutine snapshots it continuously —
// the aggregation pattern the harness uses at job end. Run under -race
// in CI. No count may be lost, no snapshot may run backwards or overshoot
// the final total.
func TestMergeWhileSnapshotting(t *testing.T) {
	const nodes = 4
	const perNode = 1000

	dst := NewRegistry()
	srcs := make([]*Registry, nodes)
	for i := range srcs {
		srcs[i] = NewRegistry()
		srcs[i].Add("events", perNode)
		srcs[i].Timer("busy").Observe(time.Second)
	}

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := dst.Snapshot().Get("events")
			if v < last {
				t.Errorf("snapshot went backwards: %d -> %d", last, v)
				return
			}
			if v > nodes*perNode {
				t.Errorf("snapshot overshot the total: %d", v)
				return
			}
			last = v
		}
	}()

	var mergeWG sync.WaitGroup
	for _, src := range srcs {
		mergeWG.Add(1)
		go func(src *Registry) {
			defer mergeWG.Done()
			dst.Merge(src)
		}(src)
	}
	mergeWG.Wait()
	close(stop)
	snapWG.Wait()

	if got := dst.Snapshot().Get("events"); got != nodes*perNode {
		t.Errorf("merged counter = %d, want %d", got, nodes*perNode)
	}
	if got := dst.Timer("busy").Total(); got != nodes*time.Second {
		t.Errorf("merged timer total = %v, want %v", got, nodes*time.Second)
	}
}
