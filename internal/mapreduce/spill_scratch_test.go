package mapreduce

import (
	"errors"
	"testing"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/extsort"
	"github.com/hamr-go/hamr/internal/faults"
)

// assertScratchHome checks every node's spill scratch once a job is over,
// clean or failed: no index and no values slice still out, and none made
// while another sat on its list. It returns how many slices the lists made
// in all, so a caller can tell that the job spilled through them.
func assertScratchHome(t *testing.T, e *Engine) (made int) {
	t.Helper()
	for node := range e.scratch {
		sc := &e.scratch[node]
		for i, s := range []extsort.ChunkStats{sc.index.Stats(), sc.values.Stats()} {
			if s.Live != 0 || s.Made != s.Free || s.Made != s.Peak {
				t.Errorf("node %d: %s list %+v, want Live 0 and Made == Free == Peak", node, []string{"index", "values"}[i], s)
			}
			made += s.Made
		}
	}
	return made
}

// TestSpillScratchHome: the index and the combiner's values that map-task
// spills borrow from their node go back whatever the attempt's end — a
// clean combining job (spills and final merges), a job whose map attempts
// are killed at their mid-task checkpoint after spilling, and one whose
// combiner fails in the middle of a spill. The clean job runs twice on one
// engine, the second time on what the first left home.
func TestSpillScratchHome(t *testing.T) {
	newCluster := func(t *testing.T, fcfg *faults.Config) *cluster.Cluster {
		c, err := cluster.New(cluster.Options{NumNodes: 3, HDFSBlockSize: 4 << 10, Faults: fcfg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	// A 1 KiB buffer spills several times per 4 KiB split, so every
	// attempt spills during its map loop and merges at its end.
	cfg := Config{SortBufferBytes: 1 << 10, MergeFactor: 3}

	t.Run("combining", func(t *testing.T) {
		c := newCluster(t, nil)
		want := writeCorpus(t, c, "in/corpus.txt", 600)
		e := NewEngine(c, cfg)
		for run := 0; run < 2; run++ {
			job := wordCountJob(true)
			job.Output = []string{"out-a", "out-b"}[run]
			if _, err := e.Run(job); err != nil {
				t.Fatal(err)
			}
			assertCounts(t, parseCounts(t, c, job.Output+"/"), want)
			if assertScratchHome(t, e) == 0 {
				t.Fatal("no spill borrowed scratch")
			}
		}
		if m := c.Metrics().Counter("mr.merge.passes").Value(); m == 0 {
			t.Error("no merge pass: the final merges went unexercised")
		}
	})

	t.Run("map-kill", func(t *testing.T) {
		c := newCluster(t, &faults.Config{Seed: 3, KillMap: 0.3, Armed: true})
		want := writeCorpus(t, c, "in/corpus.txt", 600)
		e := NewEngine(c, cfg)
		if _, err := e.Run(wordCountJob(true)); err != nil {
			t.Fatalf("job failed: %v (pick a seed no task exhausts its attempts at)", err)
		}
		if kills := c.Metrics().Counter("faults.mr.map.kill").Value(); kills == 0 {
			t.Fatal("no map attempt was killed; pick another seed")
		}
		assertCounts(t, parseCounts(t, c, "out/"), want)
		if assertScratchHome(t, e) == 0 {
			t.Fatal("no spill borrowed scratch")
		}
	})

	t.Run("combiner-fails", func(t *testing.T) {
		c := newCluster(t, nil)
		writeCorpus(t, c, "in/corpus.txt", 600)
		e := NewEngine(c, cfg)
		boom := errors.New("boom")
		job := wordCountJob(false)
		job.NewCombiner = func() Reducer {
			return ReducerFunc(func(key string, values []any, out Emitter) error {
				if len(values) > 2 {
					return boom
				}
				return wcReducer{}.Reduce(key, values, out)
			})
		}
		if _, err := e.Run(job); !errors.Is(err, boom) {
			t.Fatalf("Run = %v, want the combiner's error", err)
		}
		if assertScratchHome(t, e) == 0 {
			t.Fatal("no spill borrowed scratch")
		}
	})
}

// assertCounts requires the word counts a job wrote to be want.
func assertCounts(t *testing.T, got, want map[string]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d words in the output, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("%q counted %d, want %d", w, got[w], n)
		}
	}
}
