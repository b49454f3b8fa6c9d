package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Inc("hits")
				r.Add("bytes", 3)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 8000 {
		t.Fatalf("hits = %d", got)
	}
	if got := r.Counter("bytes").Value(); got != 24000 {
		t.Fatalf("bytes = %d", got)
	}
}

func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter not stable per name")
	}
	if r.Counter("x") == r.Counter("y") {
		t.Fatal("distinct names share a counter")
	}
}

func TestTimerStats(t *testing.T) {
	var tm Timer
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	tm.Observe(20 * time.Millisecond)
	if tm.Total() != 60*time.Millisecond {
		t.Errorf("Total = %v", tm.Total())
	}
}

func TestTimerZero(t *testing.T) {
	var tm Timer
	if tm.Total() != 0 {
		t.Fatal("zero timer not zero")
	}
}

func TestSnapshotAndMerge(t *testing.T) {
	a := NewRegistry()
	a.Add("n", 5)
	a.Timer("t").Observe(time.Second)
	b := NewRegistry()
	b.Add("n", 7)
	b.Add("only-b", 1)
	b.Timer("t").Observe(2 * time.Second)

	a.Merge(b)
	s := a.Snapshot()
	if s.Get("n") != 12 {
		t.Errorf("merged n = %d", s.Get("n"))
	}
	if s.Get("only-b") != 1 {
		t.Errorf("merged only-b = %d", s.Get("only-b"))
	}
	if s.Timers["t"] != 3*time.Second {
		t.Errorf("merged t = %v", s.Timers["t"])
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	r := NewRegistry()
	r.Add("n", 1)
	s := r.Snapshot()
	r.Add("n", 10)
	if s.Get("n") != 1 {
		t.Fatal("snapshot mutated after the fact")
	}
}

func TestSnapshotString(t *testing.T) {
	r := NewRegistry()
	r.Add("zebra", 1)
	r.Add("alpha", 2)
	r.Timer("middle").Observe(time.Second)
	out := r.Snapshot().String()
	ia, iz := strings.Index(out, "alpha"), strings.Index(out, "zebra")
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("String not sorted:\n%s", out)
	}
	if !strings.Contains(out, "middle (timer): 1s") {
		t.Fatalf("timer missing:\n%s", out)
	}
}
