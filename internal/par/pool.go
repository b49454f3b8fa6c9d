// Package par provides small concurrency utilities shared by the HAMR
// runtime and the MapReduce baseline: a fixed-size worker pool, an
// error-collecting wait group, and a counting semaphore.
//
// The worker pool is the "thread pool" of the paper's per-node runtime
// (Fig. 2): tasks are closures, executed asynchronously, and a task runs
// without blocking until it completes.
package par

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Task is a unit of work executed by a Pool worker. Tasks must not block
// indefinitely; long-running work should be split into finer tasks (this is
// the fine-grain execution property the paper relies on).
type Task func()

// Pool is a fixed-size worker pool. Submitted tasks are queued and executed
// by exactly one worker. A panicking task is recovered; the first panic is
// retained and reported by Close.
type Pool struct {
	tasks    chan Task
	wg       sync.WaitGroup
	closed   atomic.Bool
	closeMu  sync.RWMutex // submitters hold R, Close holds W around close(tasks)
	panicMu  sync.Mutex
	panicErr error
}

// NewPool starts a pool with workers goroutines and a task queue of the
// given capacity. workers and queue must be >= 1.
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 1 {
		queue = 1
	}
	p := &Pool{tasks: make(chan Task, queue)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		p.run(t)
	}
}

func (p *Pool) run(t Task) {
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicErr == nil {
				p.panicErr = fmt.Errorf("par: task panic: %v\n%s", r, debug.Stack())
			}
			p.panicMu.Unlock()
		}
	}()
	t()
}

// Submit enqueues a task, blocking if the queue is full. Submitting to a
// closed pool returns an error instead of panicking so racing producers can
// shut down gracefully.
//
// The close/submit handshake is a read-write lock rather than a recover
// around the channel send: an earlier revision swallowed the send-on-
// closed-channel panic and reported success for a task that was silently
// dropped — and closing a channel concurrently with senders is a data
// race under the memory model even when the panic is caught. A submitter
// blocked on a full queue holds only the read lock, which cannot
// deadlock Close: until Close acquires the write lock the channel is
// still open and workers keep draining it.
func (p *Pool) Submit(t Task) error {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed.Load() {
		return errors.New("par: submit on closed pool")
	}
	p.tasks <- t
	return nil
}

// Close stops accepting tasks, waits for queued tasks to drain, and returns
// the first task panic observed (nil if none).
func (p *Pool) Close() error {
	p.closeMu.Lock()
	if p.closed.CompareAndSwap(false, true) {
		close(p.tasks)
	}
	p.closeMu.Unlock()
	p.wg.Wait()
	p.panicMu.Lock()
	defer p.panicMu.Unlock()
	return p.panicErr
}
