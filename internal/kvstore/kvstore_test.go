package kvstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"github.com/hamr-go/hamr/internal/transport"
)

func TestPutGet(t *testing.T) {
	s := New(4, nil)
	tb := s.Table("t")
	tb.Put(0, "alpha", int64(1))
	tb.Put(1, "beta", "two")
	if v, ok := tb.Get(2, "alpha"); !ok || v.(int64) != 1 {
		t.Fatalf("Get(alpha) = %v, %v", v, ok)
	}
	if v, ok := tb.Get(0, "beta"); !ok || v.(string) != "two" {
		t.Fatalf("Get(beta) = %v, %v", v, ok)
	}
	if _, ok := tb.Get(0, "gamma"); ok {
		t.Fatal("Get(missing) succeeded")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestTablesAreIsolated(t *testing.T) {
	s := New(2, nil)
	s.Table("a").Put(0, "k", 1)
	if _, ok := s.Table("b").Get(0, "k"); ok {
		t.Fatal("key leaked across tables")
	}
	if got := s.Table("a"); got != s.Table("a") {
		t.Fatal("Table not stable")
	}
}

func TestOwnerConsistentWithLocalShard(t *testing.T) {
	s := New(8, nil)
	tb := s.Table("t")
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner := tb.Owner(key)
		tb.Put(-1, key, i)
		if v, ok := tb.LocalGet(owner, key); !ok || v.(int) != i {
			t.Fatalf("key %q not in owner shard %d", key, owner)
		}
		for n := 0; n < 8; n++ {
			if n == owner {
				continue
			}
			if _, ok := tb.LocalGet(n, key); ok {
				t.Fatalf("key %q also in shard %d", key, n)
			}
		}
	}
}

func TestLocalPutBypassesHashing(t *testing.T) {
	s := New(4, nil)
	tb := s.Table("t")
	tb.LocalPut(3, "anything", "here")
	if _, ok := tb.LocalGet(3, "anything"); !ok {
		t.Fatal("LocalPut key missing from its node")
	}
	if keys := tb.LocalKeys(3); len(keys) != 1 || keys[0] != "anything" {
		t.Fatalf("LocalKeys(3) = %v", keys)
	}
	if keys := tb.LocalKeys(0); len(keys) != 0 {
		t.Fatalf("LocalKeys(0) = %v", keys)
	}
}

func TestUpdateAtomicity(t *testing.T) {
	s := New(4, nil)
	tb := s.Table("counters")
	const goroutines, increments = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				tb.Update(g%4, "shared", func(old any) any {
					if old == nil {
						return int64(1)
					}
					return old.(int64) + 1
				})
			}
		}(g)
	}
	wg.Wait()
	v, _ := tb.Get(0, "shared")
	if v.(int64) != goroutines*increments {
		t.Fatalf("count = %d, want %d", v, goroutines*increments)
	}
}

func TestRemoteChargeAccounting(t *testing.T) {
	var transfers int
	var bytes int64
	s := New(4, func(from, to transport.NodeID, n int64) {
		transfers++
		bytes += n
	})
	tb := s.Table("t")
	key := "somekey"
	owner := tb.Owner(key)
	local := owner
	remote := (owner + 1) % 4

	tb.Put(local, key, "value") // local: free
	if transfers != 0 {
		t.Fatalf("local put charged %d transfers", transfers)
	}
	tb.Put(remote, key, "value") // remote: charged
	if transfers != 1 || bytes == 0 {
		t.Fatalf("remote put: %d transfers, %d bytes", transfers, bytes)
	}
	transfers = 0
	if _, ok := tb.Get(remote, key); !ok {
		t.Fatal("get failed")
	}
	if transfers != 1 {
		t.Fatalf("remote get charged %d transfers", transfers)
	}
	transfers = 0
	tb.Get(local, key)
	if transfers != 0 {
		t.Fatalf("local get charged %d", transfers)
	}
	// Client access (-1) is never charged.
	transfers = 0
	tb.Put(-1, key, "v2")
	if transfers != 0 {
		t.Fatalf("client put charged %d", transfers)
	}
}

// TestRemoteChargeDirection: a remote access is charged in the direction
// its bytes move — a Put from the requester to the owner, a Get's value
// from the owner back to the requester, whose ingress it arrives at.
func TestRemoteChargeDirection(t *testing.T) {
	type hop struct{ from, to transport.NodeID }
	var hops []hop
	s := New(4, func(from, to transport.NodeID, n int64) {
		hops = append(hops, hop{from, to})
	})
	tb := s.Table("t")
	key := "somekey"
	owner := transport.NodeID(tb.Owner(key))
	requester := (owner + 1) % 4

	tb.Put(int(requester), key, "value")
	if _, ok := tb.Get(int(requester), key); !ok {
		t.Fatal("get failed")
	}
	want := []hop{{requester, owner}, {owner, requester}}
	if !reflect.DeepEqual(hops, want) {
		t.Fatalf("charged %v, want Put %v then Get %v", hops, want[0], want[1])
	}
}

func TestClear(t *testing.T) {
	s := New(3, nil)
	tb := s.Table("t")
	for i := 0; i < 50; i++ {
		tb.Put(-1, fmt.Sprint(i), i)
	}
	tb.Clear()
	if tb.Len() != 0 {
		t.Fatalf("Len after Clear = %d", tb.Len())
	}
}

// Property: a Put followed by a Get from any node returns the value, and
// ownership is a pure function of the key.
func TestPutGetProperty(t *testing.T) {
	s := New(5, nil)
	tb := s.Table("prop")
	f := func(key string, val int64, fromA, fromB uint8) bool {
		a, b := int(fromA)%5, int(fromB)%5
		tb.Put(a, key, val)
		v, ok := tb.Get(b, key)
		if !ok || v.(int64) != val {
			return false
		}
		return tb.Owner(key) == tb.Owner(key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroNodesClamped(t *testing.T) {
	s := New(0, nil)
	if s.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d", s.NumNodes())
	}
	s.Table("t").Put(0, "k", 1)
	if v, ok := s.Table("t").Get(0, "k"); !ok || v.(int) != 1 {
		t.Fatal("single-shard store broken")
	}
}
