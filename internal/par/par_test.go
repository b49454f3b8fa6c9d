package par

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolExecutesAll(t *testing.T) {
	p := NewPool(4, 16)
	var sum atomic.Int64
	for i := 0; i < 100; i++ {
		i := i
		p.Submit(func() { sum.Add(int64(i)) })
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3, 64)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		wg.Add(1)
		p.Submit(func() {
			defer wg.Done()
			n := cur.Add(1)
			for {
				pk := peak.Load()
				if n <= pk || peak.CompareAndSwap(pk, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
	}
	wg.Wait()
	p.Close()
	if peak.Load() > 3 {
		t.Fatalf("peak concurrency %d with 3 workers", peak.Load())
	}
}

func TestPoolPanicRecovered(t *testing.T) {
	p := NewPool(2, 4)
	var after atomic.Bool
	p.Submit(func() { panic("boom") })
	p.Submit(func() { after.Store(true) })
	err := p.Close()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Close() = %v, want panic error", err)
	}
	if !after.Load() {
		t.Fatal("pool died after panic")
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p := NewPool(1, 1)
	p.Close()
	if err := p.Submit(func() {}); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// TestPoolSubmitCloseRace closes pools while producers are mid-Submit;
// every Submit must either run the task or report an error — a dropped
// task acknowledged with a nil error (the old behaviour of the recover
// path) would show up here as executed+errors < submitted.
func TestPoolSubmitCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		p := NewPool(2, 4)
		const producers = 4
		var executed atomic.Int64
		var errs atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					if err := p.Submit(func() { executed.Add(1) }); err != nil {
						errs.Add(1)
					}
				}
			}()
		}
		close(start)
		runtime.Gosched()
		p.Close() // races with the producers
		wg.Wait()
		// Tasks submitted after Close errored; the rest ran by the time
		// Close returned. Late stragglers may still land on the drained
		// queue, so give them a moment before the final count.
		deadline := time.Now().Add(time.Second)
		for executed.Load()+errs.Load() < producers*20 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := executed.Load() + errs.Load(); got != producers*20 {
			t.Fatalf("round %d: %d executed + %d errored != %d submitted (a task was silently dropped)",
				round, executed.Load(), errs.Load(), producers*20)
		}
	}
}

func TestGroupCollectsFirstError(t *testing.T) {
	g := NewGroup()
	errBoom := errors.New("boom")
	for i := 0; i < 10; i++ {
		i := i
		g.Go(func() error {
			if i == 5 {
				return errBoom
			}
			return nil
		})
	}
	if err := g.Wait(); err != errBoom {
		t.Fatalf("Wait = %v", err)
	}
}

// TestSemaphore holds a full semaphore's Acquire blocked until a holder
// releases its slot.
func TestSemaphore(t *testing.T) {
	s := NewSemaphore(2)
	s.Acquire()
	s.Acquire()
	acquired := make(chan struct{})
	go func() {
		s.Acquire()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("Acquire succeeded on a full semaphore")
	case <-time.After(20 * time.Millisecond):
	}
	s.Release()
	select {
	case <-acquired:
	case <-time.After(10 * time.Second):
		t.Fatal("Acquire still blocked after a Release")
	}
}
