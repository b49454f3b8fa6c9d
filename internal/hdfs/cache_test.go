package hdfs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hamr-go/hamr/internal/faults"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/substrate"
	"github.com/hamr-go/hamr/internal/transport"
)

// countingDisk wraps a Disk and counts Open calls, optionally stalling
// each one; the single-flight tests use it to prove a cache miss storm
// collapses to one disk read. It also counts the readers closed, so a test
// can tell that none was left open.
type countingDisk struct {
	storage.Disk
	opens, closes atomic.Int64
	stall         time.Duration
}

func (d *countingDisk) Open(name string) (io.ReadSeekCloser, error) {
	d.opens.Add(1)
	if d.stall > 0 {
		time.Sleep(d.stall)
	}
	r, err := d.Disk.Open(name)
	if err != nil {
		return nil, err
	}
	return &countedReader{ReadSeekCloser: r, d: d}, nil
}

type countedReader struct {
	io.ReadSeekCloser
	d      *countingDisk
	closed bool
}

func (r *countedReader) Close() error {
	if !r.closed {
		r.closed = true
		r.d.closes.Add(1)
	}
	return r.ReadSeekCloser.Close()
}

// cachedFS builds a filesystem over counting disks with the cache enabled
// (budget in bytes; 0 disables).
func cachedFS(t testing.TB, nodes int, cfg Config) (*FileSystem, []*countingDisk, *metrics.Registry) {
	t.Helper()
	cfg.Substrate.Fill()
	counting := make([]*countingDisk, nodes)
	disks := make([]storage.Disk, nodes)
	for i := range disks {
		counting[i] = &countingDisk{Disk: storage.NewMemDisk(0)}
		disks[i] = counting[i]
	}
	fs, err := New(disks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs, counting, cfg.Substrate.Metrics
}

func totalOpens(disks []*countingDisk) int64 {
	var n int64
	for _, d := range disks {
		n += d.opens.Load()
	}
	return n
}

func TestCacheWriteThroughServesWithoutDisk(t *testing.T) {
	fs, disks, reg := cachedFS(t, 3, Config{BlockSize: 64, CacheBytes: 1 << 20})
	data := []byte(strings.Repeat("write-through!", 32))
	if err := fs.WriteFile("f", data, 0); err != nil {
		t.Fatal(err)
	}
	// A just-written file is hot at its replica holder: reading it back
	// from node 0 must not open the disk at all.
	before := totalOpens(disks)
	got, err := fs.ReadFile("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
	if n := totalOpens(disks) - before; n != 0 {
		t.Errorf("read after write opened the disk %d times, want 0", n)
	}
	if v := reg.Counter("hdfs.cache.hits").Value(); v == 0 {
		t.Error("expected cache hits")
	}
	if v := reg.Counter("hdfs.cache.misses").Value(); v != 0 {
		t.Errorf("expected no misses, got %d", v)
	}
}

func TestCacheRemoteFetchPopulatesReader(t *testing.T) {
	var charges atomic.Int64
	reg := metrics.NewRegistry()
	fs, _, _ := cachedFS(t, 2, Config{
		BlockSize:  64,
		CacheBytes: 1 << 20,
		Substrate:  substrate.Handle{Metrics: reg},
		Remote: func(from, to transport.NodeID, n int64) {
			charges.Add(1)
		},
	})
	data := []byte(strings.Repeat("remote block ", 20))
	// All replicas on node 0 (replication 1, preferred 0); node 1 reads
	// remotely.
	if err := fs.WriteFile("f", data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("f", 1); err != nil {
		t.Fatal(err)
	}
	first := charges.Load()
	if first == 0 {
		t.Fatal("first remote read should charge the network")
	}
	// The fetched blocks are now hot at node 1: the second read is free
	// and uncharged.
	if _, err := fs.ReadFile("f", 1); err != nil {
		t.Fatal(err)
	}
	if again := charges.Load(); again != first {
		t.Errorf("second remote read charged the network (%d -> %d)", first, again)
	}
	if v := reg.Counter("hdfs.bytes.remote").Value(); v != int64(len(data)) {
		t.Errorf("hdfs.bytes.remote = %d, want %d (one cold pass)", v, len(data))
	}
}

func TestCacheSingleFlight(t *testing.T) {
	fs, disks, reg := cachedFS(t, 1, Config{BlockSize: 1 << 20, CacheBytes: 1 << 20})
	disks[0].stall = 20 * time.Millisecond
	data := []byte(strings.Repeat("single flight ", 100))
	if err := fs.WriteFile("f", data, -1); err != nil {
		t.Fatal(err)
	}
	// Write-through already populated node 0; invalidate by dropping via
	// a fresh cache state: remove + rewrite would change the block ID, so
	// instead read as 16 concurrent node-0 readers of a cold block — use
	// a second file written via a -1 client then evicted... Simplest cold
	// start: clear by removing and rewriting.
	fs.cache.invalidate(mustBlocks(t, fs, "f")[0].ID)

	start := totalOpens(disks)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := fs.ReadFile("f", 0)
			if err == nil && !bytes.Equal(got, data) {
				err = fmt.Errorf("content mismatch")
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := totalOpens(disks) - start; n != 1 {
		t.Errorf("16 concurrent cold readers opened the disk %d times, want 1", n)
	}
	if h, m := reg.Counter("hdfs.cache.hits").Value(), reg.Counter("hdfs.cache.misses").Value(); h+m < 16 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 15/1 split over 16 reads", h, m)
	}
}

func mustBlocks(t *testing.T, fs *FileSystem, name string) []Block {
	t.Helper()
	bs, err := fs.Blocks(name)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestCacheLRUEviction(t *testing.T) {
	// Budget of exactly two 64-byte blocks on one node.
	fs, _, reg := cachedFS(t, 1, Config{BlockSize: 64, CacheBytes: 128})
	blk := func(c byte) []byte { return bytes.Repeat([]byte{c}, 64) }
	for _, n := range []string{"a", "b"} {
		if err := fs.WriteFile(n, blk(n[0]), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim, then write "c".
	if _, err := fs.ReadFile("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("c", blk('c'), 0); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("hdfs.cache.evictions").Value(); v != 1 {
		t.Fatalf("evictions = %d, want 1", v)
	}
	if v := reg.Counter("hdfs.cache.bytes").Value(); v != 128 {
		t.Fatalf("cache.bytes = %d, want 128", v)
	}
	misses := reg.Counter("hdfs.cache.misses").Value()
	if _, err := fs.ReadFile("a", 0); err != nil { // still hot
		t.Fatal(err)
	}
	if v := reg.Counter("hdfs.cache.misses").Value(); v != misses {
		t.Error("read of retained entry missed")
	}
	if _, err := fs.ReadFile("b", 0); err != nil { // evicted: must miss
		t.Fatal(err)
	}
	if v := reg.Counter("hdfs.cache.misses").Value(); v != misses+1 {
		t.Error("read of evicted entry did not miss")
	}
}

func TestCacheInvalidateOnRemoveAndRewrite(t *testing.T) {
	fs, _, reg := cachedFS(t, 2, Config{BlockSize: 64, CacheBytes: 1 << 20})
	if err := fs.WriteFile("f", bytes.Repeat([]byte("old"), 40), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("hdfs.cache.bytes").Value(); v != 0 {
		t.Fatalf("cache.bytes = %d after Remove, want 0", v)
	}
	want := bytes.Repeat([]byte("new"), 40)
	if err := fs.WriteFile("f", want, 0); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("rewrite served stale content")
	}
}

func TestCacheAbortedWriterLeavesNothing(t *testing.T) {
	fs, _, reg := cachedFS(t, 2, Config{BlockSize: 64, CacheBytes: 1 << 20})
	w := fs.Create("f", 0)
	if _, err := w.Write(bytes.Repeat([]byte("x"), 200)); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if v := reg.Counter("hdfs.cache.bytes").Value(); v != 0 {
		t.Fatalf("cache.bytes = %d after Abort, want 0", v)
	}
}

func TestCacheDisabledIsIdentical(t *testing.T) {
	// CacheBytes == 0: no cache, and no hdfs.cache.* counters may appear
	// in the registry (metric-set invariance for cache-off runs).
	reg := metrics.NewRegistry()
	fs, _, _ := cachedFS(t, 2, Config{BlockSize: 64, Substrate: substrate.Handle{Metrics: reg}})
	if fs.cache != nil {
		t.Fatal("cache built despite CacheBytes == 0")
	}
	data := []byte(strings.Repeat("plain ", 64))
	if err := fs.WriteFile("f", data, 0); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	for name := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "hdfs.cache.") {
			t.Errorf("cache-off run created counter %s", name)
		}
	}
}

func TestCachedHostsReportedAndOrdered(t *testing.T) {
	fs, _, _ := cachedFS(t, 3, Config{BlockSize: 64, Replication: 1, CacheBytes: 1 << 20})
	data := bytes.Repeat([]byte("z"), 64)
	if err := fs.WriteFile("f", data, 1); err != nil {
		t.Fatal(err)
	}
	// Write-through: hot at replica holder 1. A remote read from node 2
	// makes it hot there too; replica holders must sort first.
	if _, err := fs.ReadFile("f", 2); err != nil {
		t.Fatal(err)
	}
	sp, err := fs.Splits("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != 1 {
		t.Fatalf("splits = %d, want 1", len(sp))
	}
	want := []transport.NodeID{1, 2}
	if len(sp[0].CachedHosts) != 2 || sp[0].CachedHosts[0] != want[0] || sp[0].CachedHosts[1] != want[1] {
		t.Errorf("CachedHosts = %v, want %v", sp[0].CachedHosts, want)
	}
}

func TestCacheDeadReplicaNotResurrected(t *testing.T) {
	// A block cached on a node whose storage the injector declares dead
	// must not be served from cache once faults are armed: the entry is
	// dropped and the read fails over to a live replica.
	reg := metrics.NewRegistry()
	seed := int64(0)
	var inj *faults.Injector
	var dead int
	// Find a seed whose dead set is node 0 so the test is explicit about
	// which replica dies (DeadNodes draws from the seed).
	for s := int64(1); s < 64; s++ {
		probe := faults.New(faults.Config{Seed: s, DeadNodes: 1}, 3, metrics.NewRegistry())
		if set := probe.DeadNodeSet(); len(set) == 1 {
			seed, dead = s, set[0]
			break
		}
	}
	inj = faults.New(faults.Config{Seed: seed, DeadNodes: 1}, 3, reg)

	counting := make([]*countingDisk, 3)
	disks := make([]storage.Disk, 3)
	for i := range disks {
		counting[i] = &countingDisk{Disk: storage.NewMemDisk(0)}
		disks[i] = counting[i]
	}
	fs, err := New(disks, Config{
		BlockSize: 64, Replication: 2,
		CacheBytes: 1 << 20, Substrate: substrate.Handle{Faults: inj, Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("dead replica "), 30)
	// Disarmed during setup: the write lands a replica on the doomed node
	// and write-through caches it there.
	if err := fs.WriteFile("f", data, transport.NodeID(dead)); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	got, err := fs.ReadFile("f", transport.NodeID(dead))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover read returned wrong content")
	}
	if v := reg.Counter("hdfs.failover.reads").Value(); v == 0 {
		t.Error("expected failover reads once the cached replica died")
	}
	// Deterministic under the fixed seed: a second run of the same read
	// takes the same path.
	if _, err := fs.ReadFile("f", transport.NodeID(dead)); err != nil {
		t.Fatal(err)
	}
}

func TestCacheConcurrentStress(t *testing.T) {
	// Race-hunting stress: readers hammer Open/ReadFile of shared blocks
	// while a writer loop removes and rewrites one of the files. Reads
	// racing a Remove may fail with not-exist; successful reads must
	// return one of the known generations' content.
	fs, _, _ := cachedFS(t, 3, Config{BlockSize: 64, Replication: 2, CacheBytes: 256})
	stable := []byte(strings.Repeat("stable ", 64))
	if err := fs.WriteFile("stable", stable, 0); err != nil {
		t.Fatal(err)
	}
	gen := func(g int) []byte { return bytes.Repeat([]byte{byte('a' + g%26)}, 300) }
	if err := fs.WriteFile("churn", gen(0), 1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			at := transport.NodeID(r % 3)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got, err := fs.ReadFile("stable", at)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, stable) {
					errs <- fmt.Errorf("stable file corrupted")
					return
				}
				data, err := fs.ReadFile("churn", at)
				if err != nil {
					continue // raced a Remove
				}
				if len(data) != 300 {
					errs <- fmt.Errorf("churn read %d bytes", len(data))
					return
				}
				for _, b := range data {
					if b != data[0] {
						errs <- fmt.Errorf("churn read mixed generations")
						return
					}
				}
				if rc, err := fs.Open("stable", at); err == nil {
					if _, err := io.ReadAll(rc); err != nil {
						errs <- err
						return
					}
					rc.Close()
				}
			}
		}(r)
	}
	for g := 1; g <= 40; g++ {
		if err := fs.Remove("churn"); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("churn", gen(g), transport.NodeID(g%3)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
