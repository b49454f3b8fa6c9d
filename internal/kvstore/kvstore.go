// Package kvstore implements the distributed in-memory key-value store the
// paper describes as the component generalizing K-Cliques' shared
// per-node graph memory ("this kind of distributed memory will be built
// into HAMR as a component called key-value store", §5.2).
//
// A Store is sharded across cluster nodes by key hash. Tables namespace
// keys. Access from the shard's own node is free; access from another node
// pays the fabric for the bytes in the direction they move — a Put or
// Update from the requester to the owner, a Get from the owner back to the
// requester — through the transfer function the cluster passes to New (its
// network's Transfer). LocalPut and LocalGet touch only the caller's own
// shard and are always free; they are what the workloads use.
package kvstore

import (
	"sync"

	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/transport"
)

// Store is a cluster-wide, node-sharded key-value store.
type Store struct {
	numNodes int
	charge   func(from, to transport.NodeID, bytes int64)
	mu       sync.Mutex
	tables   map[string]*Table
}

// New creates a store over numNodes shards. charge prices a remote access
// of about bytes moving from one node to another; nil makes remote access
// free (tests).
func New(numNodes int, charge func(from, to transport.NodeID, bytes int64)) *Store {
	if numNodes < 1 {
		numNodes = 1
	}
	return &Store{
		numNodes: numNodes,
		charge:   charge,
		tables:   make(map[string]*Table),
	}
}

// NumNodes returns the shard count.
func (s *Store) NumNodes() int { return s.numNodes }

// Table returns the named table, creating it on first use.
func (s *Store) Table(name string) *Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		t = newTable(s, name)
		s.tables[name] = t
	}
	return t
}

// Table is one namespace of the store, sharded across nodes by key hash.
type Table struct {
	store  *Store
	name   string
	shards []shard
}

type shard struct {
	mu sync.RWMutex
	m  map[string]any
}

func newTable(s *Store, name string) *Table {
	t := &Table{store: s, name: name, shards: make([]shard, s.numNodes)}
	for i := range t.shards {
		t.shards[i].m = make(map[string]any)
	}
	return t
}

// Owner returns the node owning a key.
func (t *Table) Owner(key string) int {
	return core.HashPartition(key, t.store.numNodes)
}

// chargeIfRemote prices bytes moving from node src to node dst. A
// location-less client (-1) on either end is never charged.
func (t *Table) chargeIfRemote(src, dst int, bytes int64) {
	if src >= 0 && dst >= 0 && src != dst && t.store.charge != nil {
		t.store.charge(transport.NodeID(src), transport.NodeID(dst), bytes)
	}
}

// Put stores value under key; `from` is the accessing node (-1 for a
// location-less client, which is never charged).
func (t *Table) Put(from int, key string, value any) {
	owner := t.Owner(key)
	t.chargeIfRemote(from, owner, int64(len(key))+core.ValueSize(value))
	sh := &t.shards[owner]
	sh.mu.Lock()
	sh.m[key] = value
	sh.mu.Unlock()
}

// Get fetches the value for key as observed from node `from`.
func (t *Table) Get(from int, key string) (any, bool) {
	owner := t.Owner(key)
	sh := &t.shards[owner]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		t.chargeIfRemote(owner, from, int64(len(key))+core.ValueSize(v))
	}
	return v, ok
}

// Update atomically applies fn to the current value of key (nil if absent)
// and stores the result. It returns the new value.
func (t *Table) Update(from int, key string, fn func(old any) any) any {
	owner := t.Owner(key)
	sh := &t.shards[owner]
	sh.mu.Lock()
	next := fn(sh.m[key])
	sh.m[key] = next
	sh.mu.Unlock()
	t.chargeIfRemote(from, owner, int64(len(key))+core.ValueSize(next))
	return next
}

// LocalPut stores a key in node's own shard regardless of hash ownership —
// node-local shared memory (the K-Cliques per-node graph, §5.2).
func (t *Table) LocalPut(node int, key string, value any) {
	sh := &t.shards[node]
	sh.mu.Lock()
	sh.m[key] = value
	sh.mu.Unlock()
}

// LocalGet reads a key from node's own shard only.
func (t *Table) LocalGet(node int, key string) (any, bool) {
	sh := &t.shards[node]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

// LocalKeys returns the keys stored in node's shard (unordered).
func (t *Table) LocalKeys(node int) []string {
	sh := &t.shards[node]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	keys := make([]string, 0, len(sh.m))
	for k := range sh.m {
		keys = append(keys, k)
	}
	return keys
}

// Len returns the total number of keys across shards.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.RLock()
		n += len(t.shards[i].m)
		t.shards[i].mu.RUnlock()
	}
	return n
}

// Clear removes every key in every shard.
func (t *Table) Clear() {
	for i := range t.shards {
		t.shards[i].mu.Lock()
		t.shards[i].m = make(map[string]any)
		t.shards[i].mu.Unlock()
	}
}
