package mapreduce

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/storage"
)

// teraRows builds TeraSort-style rows: a pseudo-random 10-hex-digit key
// and a fixed-width payload, one per line.
func teraRows(n int) string {
	var sb strings.Builder
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		fmt.Fprintf(&sb, "%010x %08d-payload\n", state&0xFFFFFFFFFF, i)
	}
	return sb.String()
}

// identitySortJob is TeraSort over teraRows: the mapper cuts a row into key
// and payload, the reducer emits every value of every key.
func identitySortJob(reduces int) Job {
	return Job{
		Name:          "terasort",
		InputPrefixes: []string{"in/"},
		Output:        "out",
		NumReduces:    reduces,
		NewMapper: func() Mapper {
			return MapperFunc(func(kv core.KV, out Emitter) error {
				k, v, _ := strings.Cut(kv.Value.(string), " ")
				return out.Emit(core.KV{Key: k, Value: v})
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key string, values []any, out Emitter) error {
				for _, v := range values {
					if err := out.Emit(core.KV{Key: key, Value: v}); err != nil {
						return err
					}
				}
				return nil
			})
		},
	}
}

// TestExternalReduceMatchesPinnedBaseline runs an identity sort whose map
// tasks spill and multi-pass merge and whose reducers merge from disk —
// every leg of the spill → merge → fetch path — and compares its output
// and its modeled-cost counters with values recorded before that path
// moved to byte merges and recycled pages (PR 13). A change to the path
// must not move any of them unless it means to, and says so here.
func TestExternalReduceMatchesPinnedBaseline(t *testing.T) {
	externalReduceMatchesPinnedBaseline(t)
}

// externalReduceMatchesPinnedBaseline is the test's body; it closes its
// cluster before it returns, so it can run inside a synctest bubble.
func externalReduceMatchesPinnedBaseline(t *testing.T) {
	// A zero-cost disk model still counts every byte through CostDisk.
	c, err := cluster.New(cluster.Options{NumNodes: 4, HDFSBlockSize: 4 << 10, DiskModel: &storage.CostModel{}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.FS().WriteFile("in/rows.txt", []byte(teraRows(6000)), -1); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(c, Config{SortBufferBytes: 2 << 10, MergeFactor: 3, ReduceHeapBytes: 16 << 10})
	job := identitySortJob(4)
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	rows := 0
	for _, f := range c.FS().List("out/") {
		data, err := c.FS().ReadFile(f, -1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
		rows += strings.Count(string(data), "\n")
	}
	if rows != 6000 {
		t.Errorf("output holds %d rows, want 6000", rows)
	}
	const wantHash = "09bccd8f20df66484ff083377ff9868af64e34376fdebb1b476976fcbfce140c"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantHash {
		t.Errorf("output hash = %s, want %s", got, wantHash)
	}
	for _, want := range []struct {
		name  string
		value int64
	}{
		// Spills, accounted spill bytes (pre-encoding) and merge passes are
		// what the varint codec (PR 23) must not move, and did not.
		{"mr.spills", 206},
		{"mr.spill.bytes", 348000},
		{"mr.merge.passes", 41},
		// 142 before PR 23: a fetched section is 7 bytes a row smaller, so
		// six fewer of them find heap/2 already full. 136 until the reduce
		// side merged in memory: one disk run each time heap/2 fills, where
		// every section past the first crossing was a run of its own.
		{"mr.reduce.disk.merges", 20},
		// Both byte counters fell by 92 920 when the map side's runs became
		// sectioned (PR 20), from 1231548 and 1395452: 24 000 of it is the
		// 4-byte partition prefix off each of the 6 000 records spilled, the
		// rest what the merge passes stopped rewriting and rereading — no
		// prefix there either, and a pass takes the lightest adjacent runs
		// where it took the front of the list, its own last output included.
		// What the final merge writes and the reducers fetch did not move.
		// PR 23 took 147 308 off both (1138628 and 1302532 before): a row's
		// value is tag + 1-byte length + 16 where the length was an 8-byte
		// word, 7 bytes off each of the 21 044 records written to a spill, a
		// merge pass, a map output or a fetch run, and each is read back once.
		// The in-memory merge took 15 368 off both (991320 and 1155224
		// before): the sections fetched after a reducer's last crossing of
		// heap/2 stay in memory instead of being written and read back.
		{"disk.write.bytes", 975952},
		// The input's share fell when a split stopped reading 1 MiB of whole
		// blocks past its end (PR 18: its own block plus one read-ahead unit
		// of the next); it was 4592892.
		{"disk.read.bytes", 1139856},
	} {
		if got := c.Metrics().Counter(want.name).Value(); got != want.value {
			t.Errorf("%s = %d, want %d", want.name, got, want.value)
		}
	}
}
