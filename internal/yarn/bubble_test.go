//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package yarn

import (
	"errors"
	"testing"
	"testing/synctest"
)

// The scheduler in a synctest bubble: a waiter that nothing will wake
// (memory a Release failed to return, a Close that did not broadcast)
// fails the bubble at once with every blocked stack, where the plain
// tests would wait for go test's timeout.

func TestBubbleReleaseWakesWaiter(t *testing.T) {
	synctest.Run(func() {
		s := NewScheduler(1, 1000)
		first, err := s.Allocate(800, -1)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *Container)
		go func() {
			c, err := s.Allocate(800, -1)
			if err != nil {
				t.Error(err)
			}
			done <- c
		}()
		synctest.Wait()
		if _, waited, _ := s.Stats(); waited != 1 {
			t.Fatalf("waited = %d, want the second allocation parked", waited)
		}
		s.Release(first)
		second := <-done
		s.Release(second)
		if got := s.FreeMB(0); got != 1000 {
			t.Errorf("FreeMB = %d after both releases, want 1000", got)
		}
	})
}

func TestBubbleRevokeWakesWaiter(t *testing.T) {
	synctest.Run(func() {
		s := NewScheduler(1, 512)
		a, _ := s.Allocate(512, -1)
		done := make(chan *Container)
		go func() {
			c, err := s.Allocate(512, -1)
			if err != nil {
				t.Error(err)
			}
			done <- c
		}()
		synctest.Wait()
		s.Revoke(a)
		c := <-done
		s.Release(a) // a no-op: the revocation returned its memory
		s.Release(c)
		if got := s.FreeMB(0); got != 512 {
			t.Errorf("FreeMB = %d, want 512", got)
		}
	})
}

func TestBubbleCloseFailsWaiter(t *testing.T) {
	synctest.Run(func() {
		s := NewScheduler(1, 512)
		if _, err := s.Allocate(512, -1); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error)
		go func() {
			_, err := s.Allocate(512, -1)
			errs <- err
		}()
		synctest.Wait()
		s.Close()
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Errorf("waiter got %v, want ErrClosed", err)
		}
	})
}
