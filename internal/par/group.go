package par

import (
	"sync"
)

// Group runs functions concurrently and collects the first error, similar
// in spirit to errgroup but with no external dependency and no context
// plumbing (callers cancel through their own mechanisms).
type Group struct {
	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// NewGroup returns an empty Group.
func NewGroup() *Group { return &Group{} }

// Go runs fn in a new goroutine.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until all functions started with Go have returned, then
// returns the first error observed (nil if none).
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Semaphore is a counting semaphore built on a buffered channel.
type Semaphore chan struct{}

// NewSemaphore returns a semaphore admitting n concurrent holders.
func NewSemaphore(n int) Semaphore { return make(Semaphore, n) }

// Acquire takes one slot, blocking until available.
func (s Semaphore) Acquire() { s <- struct{}{} }

// Release returns one slot.
func (s Semaphore) Release() { <-s }
