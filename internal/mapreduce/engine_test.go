package mapreduce

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
)

func newTestCluster(t testing.TB, nodes int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		NumNodes:      nodes,
		HDFSBlockSize: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

type wcMapper struct{}

func (wcMapper) Map(kv core.KV, out Emitter) error {
	for _, w := range strings.Fields(kv.Value.(string)) {
		if err := out.Emit(core.KV{Key: w, Value: int64(1)}); err != nil {
			return err
		}
	}
	return nil
}

type wcReducer struct{}

func (wcReducer) Reduce(key string, values []any, out Emitter) error {
	var total int64
	for _, v := range values {
		total += v.(int64)
	}
	return out.Emit(core.KV{Key: key, Value: total})
}

func writeCorpus(t testing.TB, c *cluster.Cluster, path string, lines int) map[string]int64 {
	t.Helper()
	words := []string{"ant", "bee", "cat", "dog", "elk", "fox"}
	want := map[string]int64{}
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		for j := 0; j < 6; j++ {
			w := words[(i*13+j*5)%len(words)]
			want[w]++
			sb.WriteString(w)
			sb.WriteByte(' ')
		}
		sb.WriteByte('\n')
	}
	if err := c.FS().WriteFile(path, []byte(sb.String()), -1); err != nil {
		t.Fatal(err)
	}
	return want
}

func parseCounts(t testing.TB, c *cluster.Cluster, prefix string) map[string]int64 {
	t.Helper()
	got := map[string]int64{}
	for _, f := range c.FS().List(prefix) {
		data, err := c.FS().ReadFile(f, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" {
				continue
			}
			parts := strings.SplitN(line, "\t", 2)
			n, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			got[parts[0]] += n
		}
	}
	return got
}

func wordCountJob(withCombiner bool) Job {
	j := Job{
		Name:          "wordcount",
		InputPrefixes: []string{"in/"},
		Output:        "out",
		NewMapper:     func() Mapper { return wcMapper{} },
		NewReducer:    func() Reducer { return wcReducer{} },
		NumReduces:    3,
	}
	if withCombiner {
		j.NewCombiner = func() Reducer { return wcReducer{} }
	}
	return j
}

func TestMapReduceWordCount(t *testing.T) {
	for _, tc := range []struct {
		name     string
		combiner bool
	}{{"plain", false}, {"combiner", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, 4)
			want := writeCorpus(t, c, "in/corpus.txt", 400)
			e := NewEngine(c, Config{})
			res, err := e.Run(wordCountJob(tc.combiner))
			if err != nil {
				t.Fatal(err)
			}
			if res.MapTasks == 0 || res.ReduceTasks != 3 {
				t.Errorf("tasks: %d maps, %d reduces", res.MapTasks, res.ReduceTasks)
			}
			got := parseCounts(t, c, "out/")
			if len(got) != len(want) {
				t.Fatalf("%d distinct words, want %d", len(got), len(want))
			}
			for w, n := range want {
				if got[w] != n {
					t.Errorf("count[%q] = %d, want %d", w, got[w], n)
				}
			}
			if tc.combiner && res.ShuffleBytes == 0 {
				// With 4 nodes some segment always crosses nodes; the
				// combiner shrinks but does not eliminate shuffle.
				t.Log("no shuffle bytes recorded (all reduce tasks co-located)")
			}
		})
	}
}

func TestCombinerShrinksShuffle(t *testing.T) {
	cPlain := newTestCluster(t, 4)
	writeCorpus(t, cPlain, "in/corpus.txt", 800)
	plain, err := NewEngine(cPlain, Config{}).Run(wordCountJob(false))
	if err != nil {
		t.Fatal(err)
	}
	cComb := newTestCluster(t, 4)
	writeCorpus(t, cComb, "in/corpus.txt", 800)
	comb, err := NewEngine(cComb, Config{}).Run(wordCountJob(true))
	if err != nil {
		t.Fatal(err)
	}
	if comb.ShuffleBytes >= plain.ShuffleBytes {
		t.Errorf("combiner did not shrink shuffle: %d >= %d", comb.ShuffleBytes, plain.ShuffleBytes)
	}
}

func TestMapSideSpill(t *testing.T) {
	c := newTestCluster(t, 2)
	writeCorpus(t, c, "in/corpus.txt", 600)
	e := NewEngine(c, Config{SortBufferBytes: 2 << 10})
	if _, err := e.Run(wordCountJob(false)); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Counter("mr.spills").Value(); got < 2 {
		t.Errorf("expected multiple spills with a 2KiB sort buffer, got %d", got)
	}
	got := parseCounts(t, c, "out/")
	if len(got) != 6 {
		t.Errorf("%d distinct words after spilling, want 6", len(got))
	}
}

func TestReduceOOM(t *testing.T) {
	c := newTestCluster(t, 2)
	writeCorpus(t, c, "in/corpus.txt", 400)
	e := NewEngine(c, Config{ReduceHeapBytes: 1 << 10})
	job := wordCountJob(false)
	// Reducer that "builds a graph in memory" per task, like the paper's
	// K-Cliques reduce (§5.2) — exceeding the task heap must fail the job.
	job.NewReducer = func() Reducer {
		return ReducerFunc(func(key string, values []any, out Emitter) error {
			return out.Charge(1 << 20)
		})
	}
	_, err := e.Run(job)
	if err == nil {
		t.Fatal("expected OOM, job succeeded")
	}
	if !strings.Contains(err.Error(), "OutOfMemoryError") {
		t.Fatalf("want OOM error, got %v", err)
	}
}

// TestMapOnlyJob holds job validation: a job without a reducer — the
// map-only job Hadoop allows — is refused like one without a mapper, an
// input or an output, with an error naming the job, before it runs a task.
func TestMapOnlyJob(t *testing.T) {
	c := newTestCluster(t, 2)
	writeCorpus(t, c, "in/corpus.txt", 50)
	e := NewEngine(c, Config{})
	for _, tc := range []struct {
		name  string
		strip func(*Job)
		want  string
	}{
		{"no reducer", func(j *Job) { j.NewReducer = nil }, "has no reducer"},
		{"no mapper", func(j *Job) { j.NewMapper = nil }, "has no mapper"},
		{"no input", func(j *Job) { j.InputPrefixes = nil }, "has no input"},
		{"no output", func(j *Job) { j.Output = "" }, "has no output"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job := wordCountJob(false)
			job.Name = "refused-" + strings.ReplaceAll(tc.name, " ", "-")
			tc.strip(&job)
			jobs := c.Metrics().Counter("mr.jobs")
			before := jobs.Value()
			res, err := e.Run(job)
			if err == nil {
				t.Fatalf("job ran: %+v", res)
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), job.Name) {
				t.Errorf("error %q, want %q naming job %q", err, tc.want, job.Name)
			}
			if jobs.Value() != before {
				t.Error("a refused job was started")
			}
		})
	}
	if left := c.FS().List(""); len(left) != 1 {
		t.Errorf("HDFS holds %v, want only the input", left)
	}
}

func TestRunChain(t *testing.T) {
	// Job 1 counts words; job 2 inverts to (count, word) and groups.
	c := newTestCluster(t, 3)
	writeCorpus(t, c, "in/corpus.txt", 200)
	e := NewEngine(c, Config{})
	j1 := wordCountJob(true)
	j1.Output = "mid"
	j2 := Job{
		Name:          "invert",
		InputPrefixes: []string{"mid/"},
		Output:        "out",
		NewMapper: func() Mapper {
			return MapperFunc(func(kv core.KV, out Emitter) error {
				parts := strings.SplitN(kv.Value.(string), "\t", 2)
				return out.Emit(core.KV{Key: parts[1], Value: parts[0]})
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(key string, values []any, out Emitter) error {
				ws := make([]string, len(values))
				for i, v := range values {
					ws[i] = v.(string)
				}
				sort.Strings(ws)
				return out.Emit(core.KV{Key: key, Value: strings.Join(ws, ",")})
			})
		},
		NumReduces: 2,
	}
	res, err := e.RunChain(j1, j2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("chain ran %d jobs, want 2", len(res.Jobs))
	}
	var lines int
	for _, f := range c.FS().List("out/") {
		data, _ := c.FS().ReadFile(f, -1)
		lines += strings.Count(string(data), "\n")
	}
	if lines == 0 {
		t.Error("chained job produced no output")
	}
}

func TestLocalityPreferred(t *testing.T) {
	c := newTestCluster(t, 4)
	writeCorpus(t, c, "in/corpus.txt", 2000)
	e := NewEngine(c, Config{})
	if _, err := e.Run(wordCountJob(true)); err != nil {
		t.Fatal(err)
	}
	local := c.Metrics().Counter("mr.map.local").Value()
	remote := c.Metrics().Counter("mr.map.remote").Value()
	if local == 0 {
		t.Errorf("no data-local map tasks (local=%d remote=%d)", local, remote)
	}
	if local < remote {
		t.Errorf("locality scheduling worse than random: local=%d remote=%d", local, remote)
	}
}

func TestJobValidation(t *testing.T) {
	c := newTestCluster(t, 1)
	e := NewEngine(c, Config{})
	if _, err := e.Run(Job{Name: "x", Output: "o", NewMapper: func() Mapper { return wcMapper{} }}); err == nil {
		t.Error("job without input accepted")
	}
	if _, err := e.Run(Job{Name: "x", InputPrefixes: []string{"in/"}, NewMapper: func() Mapper { return wcMapper{} }}); err == nil {
		t.Error("job without output accepted")
	}
	if _, err := e.Run(Job{Name: "x", InputPrefixes: []string{"in/"}, Output: "o"}); err == nil {
		t.Error("job without mapper accepted")
	}
	if _, err := e.Run(Job{Name: "x", InputPrefixes: []string{"missing/"}, Output: "o",
		NewMapper: func() Mapper { return wcMapper{} }}); err == nil {
		t.Error("job with missing input accepted")
	}
}

func TestMapperFailurePropagates(t *testing.T) {
	c := newTestCluster(t, 2)
	writeCorpus(t, c, "in/corpus.txt", 50)
	e := NewEngine(c, Config{})
	job := wordCountJob(false)
	job.NewMapper = func() Mapper {
		return MapperFunc(func(kv core.KV, out Emitter) error {
			return fmt.Errorf("bad record")
		})
	}
	if _, err := e.Run(job); err == nil || !strings.Contains(err.Error(), "bad record") {
		t.Fatalf("mapper failure not propagated: %v", err)
	}
}
