package par

import (
	"strings"
	"sync"
	"testing"
)

// TestListRecycles: a returned slice comes back empty with its capacity,
// cleared (poisoned, under -race) up to that capacity, before the list
// makes another; the counts say so.
func TestListRecycles(t *testing.T) {
	l := NewSlices[byte](4)
	a, b := l.Get(), l.Get()
	a = append(a, 1, 2, 3)
	l.Put(a)
	l.Put(b)
	want := byte(0)
	if poison([]byte{0}) { // a race build
		want = 0xA5
	}
	for i := 0; i < 2; i++ {
		c := l.Get()
		if len(c) != 0 || cap(c) != 4 {
			t.Fatalf("reused slice len %d cap %d", len(c), cap(c))
		}
		for _, x := range c[:cap(c)] {
			if x != want {
				t.Fatalf("reused slice holds %v, want every byte %#x", c[:cap(c)], want)
			}
		}
		defer l.Put(c)
	}
	if s := l.Stats(); s.Made != 2 || s.Peak != 2 || s.Live != 2 || s.Free != 0 {
		t.Fatalf("stats %+v, want Made 2, Peak 2, Live 2", s)
	}
}

// TestListClearsReferences: Put runs the list's reset, so what an item
// referenced is not reachable from the list.
func TestListClearsReferences(t *testing.T) {
	l := NewSlices[*int](2)
	s := l.Get()
	x := 1
	s = append(s, &x, &x)
	kept := s[:2]
	l.Put(s)
	if kept[0] != nil || kept[1] != nil {
		t.Fatalf("a returned slice still references %v", kept)
	}
}

// TestListCallerMakes: a list of size 0 hands out nil when it has nothing
// idle, and counts the slice the caller made and returned as its own.
func TestListCallerMakes(t *testing.T) {
	l := NewSlices[uint32](0)
	if s := l.Get(); s != nil {
		t.Fatalf("empty list handed out %v", s)
	}
	l.Put(make([]uint32, 0, 10))
	if s := l.Get(); cap(s) != 10 {
		t.Fatalf("reused slice cap %d, want the 10 the caller made", cap(s))
	}
	if s := l.Stats(); s.Made != 1 || s.Live != 1 {
		t.Fatalf("stats %+v, want Made 1, Live 1", s)
	}
}

// TestListBound: a bounded list drops what comes back past its bound and
// counts it; Reserve raises the bound, never lowers it, and leaves an
// unbounded list unbounded.
func TestListBound(t *testing.T) {
	l := NewSlices[int](1).Bounded(1)
	items := [][]int{l.Get(), l.Get(), l.Get()}
	for _, it := range items {
		l.Put(it)
	}
	if s := l.Stats(); s.Free != 1 || s.Dropped != 2 || s.Home() != nil {
		t.Fatalf("bound 1: %+v, want one free and two dropped, home", s)
	}
	l.Reserve(3)
	l.Reserve(2)
	items = [][]int{l.Get(), l.Get(), l.Get()}
	for _, it := range items {
		l.Put(it)
	}
	if s := l.Stats(); s.Free != 3 || s.Dropped != 2 || s.Made != 5 {
		t.Fatalf("bound 3: %+v, want all three kept: three free, five made", s)
	}
	u := NewSlices[int](1)
	u.Reserve(1)
	u.Put(u.Get())
	u.Put(u.Get())
	a, b := u.Get(), u.Get()
	u.Put(a)
	u.Put(b)
	if s := u.Stats(); s.Free != 2 || s.Dropped != 0 {
		t.Fatalf("unbounded list after Reserve: %+v, want both free", s)
	}
}

// TestStatsHome: Home holds once everything is back, and names what is
// wrong otherwise — an item still out, or one put back twice.
func TestStatsHome(t *testing.T) {
	l := NewList(func() *int { return new(int) }, func(p *int) *int { *p = 0; return p })
	p := l.Get()
	if err := l.Stats().Home(); err == nil || !strings.Contains(err.Error(), "1 live") {
		t.Fatalf("Home with one out = %v", err)
	}
	l.Put(p)
	if err := l.Stats().Home(); err != nil {
		t.Fatal(err)
	}
	l.Put(p)
	if err := l.Stats().Home(); err == nil {
		t.Fatal("Home after a second Put of one item = nil")
	}
}

// TestBuffersHome: one call checks every named list and names the ones
// not home, in name order.
func TestBuffersHome(t *testing.T) {
	a, b, c := NewSlices[byte](1), NewSlices[byte](1), NewSlices[byte](1)
	b.Get()
	c.Get()
	lists := Buffers{"a": a.Stats}
	lists.Add("x/", Buffers{"c": c.Stats, "b": b.Stats})
	err := lists.Home()
	if err == nil {
		t.Fatal("Home = nil with two lists not home")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "x/b: ") || !strings.Contains(msg, "\nx/c: ") || strings.Contains(msg, "a:") {
		t.Fatalf("Home = %q, want x/b then x/c", msg)
	}
}

// TestListConcurrent: items move between goroutines and every one comes
// home, with no more made than were ever out at once.
func TestListConcurrent(t *testing.T) {
	l := NewSlices[byte](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s := append(l.Get(), byte(i))
				l.Put(s)
			}
		}()
	}
	wg.Wait()
	s := l.Stats()
	if err := s.Home(); err != nil {
		t.Fatal(err)
	}
	if s.Made != s.Peak || s.Made > 8 {
		t.Fatalf("%+v: want Made == Peak <= 8", s)
	}
}
