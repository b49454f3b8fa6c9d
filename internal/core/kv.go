// Package core implements the paper's primary contribution: the flowlet
// dataflow engine. A job is a DAG of flowlets (Loader, Map, Reduce,
// PartialReduce); every node in the cluster runs the whole graph (§2);
// key-value pairs move between flowlets packed into bins; the per-node
// runtime schedules flowlet tasks asynchronously over a worker pool as
// their input bins arrive; reduce flowlets form the only barriers; flow
// control suspends producers whose downstream cannot keep up.
package core

import (
	"fmt"
)

// KV is a key-value pair, the unit of data flowing through the graph.
// Values are kept as native Go values in memory; the codec (codec.go)
// defines their byte representation for spills and wire transfer.
type KV struct {
	Key   string
	Value any
}

// Sizer lets custom value types report their approximate in-memory size to
// the memory manager.
type Sizer interface {
	SizeBytes() int64
}

// ValueSize estimates the in-memory footprint of a value in bytes. The
// estimate feeds the memory manager's budget and the transport cost model,
// so it needs to be cheap and roughly proportional, not exact.
func ValueSize(v any) int64 {
	switch x := v.(type) {
	case nil:
		return 0
	case bool, int8, uint8:
		return 1
	case int, int64, uint64, float64, uint, int32, uint32, float32:
		return 8
	case string:
		return int64(len(x)) + 16
	case []byte:
		return int64(len(x)) + 24
	case []float64:
		return int64(len(x))*8 + 24
	case []int64:
		return int64(len(x))*8 + 24
	case []int:
		return int64(len(x))*8 + 24
	case map[string]int64:
		n := int64(48)
		for k := range x {
			n += int64(len(k)) + 24
		}
		return n
	case []string:
		n := int64(24)
		for _, s := range x {
			n += int64(len(s)) + 16
		}
		return n
	case []any:
		n := int64(24)
		for _, e := range x {
			n += ValueSize(e) + 16
		}
		return n
	case Sizer:
		return x.SizeBytes()
	default:
		// Unknown types get a flat conservative charge; apps with large
		// custom values should implement Sizer.
		return 64
	}
}

// Size estimates the in-memory footprint of a KV in bytes.
func (kv KV) Size() int64 { return int64(len(kv.Key)) + 16 + ValueSize(kv.Value) }

// String renders the pair for debugging.
func (kv KV) String() string { return fmt.Sprintf("%s=%v", kv.Key, kv.Value) }

// FNV-1a, inlined so partitioning does not allocate.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashKey returns a stable 64-bit hash of the key.
func HashKey(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// Partitioner maps a key to one of n partitions (nodes). It must be a pure
// function of the key so that all nodes route a key identically.
type Partitioner func(key string, n int) int

// HashPartition is the default partitioner: FNV-1a modulo n. "Each node
// works on a portion of the whole key space" (§2).
func HashPartition(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(HashKey(key) % uint64(n))
}

// stripeOf picks the partial-reduce lock stripe a key folds under. The
// hash is finalizer-mixed (murmur3's fmix64) before the modulo: every key
// a node owns already satisfies HashKey(k) ≡ node (mod nodes), so the raw
// hash modulo the stripe count would leave a node only stripes/nodes of
// its stripes. FNV-1a's high bits are poorly mixed for short keys, so a
// shift is not enough.
func stripeOf(key string, nstripes int) int {
	h := HashKey(key)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(nstripes))
}
