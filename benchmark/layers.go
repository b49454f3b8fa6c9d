package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"github.com/hamr-go/hamr/internal/apps/hamrapps"
	"github.com/hamr-go/hamr/internal/bench"
	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/compress"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/datagen"
	"github.com/hamr-go/hamr/internal/extsort"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/kvstore"
	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/transport"
	"github.com/hamr-go/hamr/internal/yarn"
)

// Host-side layer probes: the unit computations a workload row is made
// of, timed from here around public calls with fixed op counts on
// zero-cost substrates. They are host numbers (ns/op, allocs/op, MB/s of
// this process), independent of workload and seed, and each stays well
// under a second.

type probe struct {
	Metrics []metricDef
	run     func() (map[string]float64, error)
}

func hostMetric(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

var probes = []probe{
	{
		Metrics: []metricDef{
			hostMetric("core.codec_encode_ns_per_kv", "ns", "lower"),
			hostMetric("core.codec_decode_ns_per_kv", "ns", "lower"),
			hostMetric("core.codec_allocs_per_kv", "count", "lower"),
		},
		run: func() (map[string]float64, error) {
			return probeCodec("", func(i int) any { return int64(i) })
		},
	},
	{
		Metrics: []metricDef{
			hostMetric("core.codec_encode_ns_per_kv_str", "ns", "lower"),
			hostMetric("core.codec_decode_ns_per_kv_str", "ns", "lower"),
			hostMetric("core.codec_allocs_per_kv_str", "count", "lower"),
		},
		run: func() (map[string]float64, error) {
			return probeCodec("_str", func(i int) any { return fmt.Sprintf("%08d-payload", i) })
		},
	},
	{
		Metrics: []metricDef{
			hostMetric("core.emit_ns_per_kv", "ns", "lower"),
			hostMetric("core.emit_allocs_per_kv", "count", "lower"),
		},
		run: probeEmit,
	},
	{
		Metrics: []metricDef{
			hostMetric("transport.send_ns_per_msg", "ns", "lower"),
			hostMetric("transport.coalesced_ns_per_msg", "ns", "lower"),
		},
		run: func() (map[string]float64, error) {
			direct, err := probeSend(false)
			if err != nil {
				return nil, err
			}
			coalesced, err := probeSend(true)
			return map[string]float64{
				"transport.send_ns_per_msg":      direct,
				"transport.coalesced_ns_per_msg": coalesced,
			}, err
		},
	},
	{
		Metrics: []metricDef{
			hostMetric("extsort.build_ns_per_rec", "ns", "lower"),
			hostMetric("extsort.merge_ns_per_rec", "ns", "lower"),
			hostMetric("extsort.allocs_per_rec", "count", "lower"),
		},
		run: probeExtsort,
	},
	{
		Metrics: []metricDef{
			hostMetric("storage.costdisk_write_ns_per_mb", "ns", "lower"),
			hostMetric("storage.costdisk_read_ns_per_mb", "ns", "lower"),
		},
		run: probeCostDisk,
	},
	{
		Metrics: []metricDef{
			hostMetric("hdfs.write_ns_per_mb", "ns", "lower"),
			hostMetric("hdfs.read_ns_per_mb", "ns", "lower"),
		},
		run: probeHDFS,
	},
	{
		Metrics: []metricDef{
			hostMetric("compress.lz_encode_mb_per_s", "MB/s", "higher"),
			hostMetric("compress.lz_decode_mb_per_s", "MB/s", "higher"),
			hostMetric("compress.lz_ratio", "ratio", "higher"),
		},
		run: probeCompress,
	},
	{
		Metrics: []metricDef{hostMetric("yarn.alloc_release_ns", "ns", "lower")},
		run:     probeYarn,
	},
	{
		Metrics: []metricDef{hostMetric("kvstore.update_ns", "ns", "lower")},
		run:     probeKVStore,
	},
	{
		Metrics: []metricDef{
			hostMetric("cluster.new_close_s", "s", "lower"),
			hostMetric("cluster.empty_job_s", "s", "lower"),
		},
		run: probeCluster,
	},
	{
		Metrics: []metricDef{
			hostMetric("datagen.text_mb_per_s", "MB/s", "higher"),
			hostMetric("datagen.movies_mb_per_s", "MB/s", "higher"),
		},
		run: probeDatagen,
	},
}

// runProbes runs every layer probe once.
func runProbes() (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range probes {
		runtime.GC()
		vals, err := p.run()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.Metrics[0].Name, err)
		}
		for _, m := range p.Metrics {
			v, ok := vals[m.Name]
			if !ok {
				return nil, fmt.Errorf("probe did not report %s", m.Name)
			}
			out[m.Name] = v
		}
	}
	return out, nil
}

// timed returns fn's wall time in nanoseconds and the heap objects it
// allocated.
func timed(fn func() error) (ns, mallocs float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = fn()
	ns = float64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	return ns, float64(m1.Mallocs - m0.Mallocs), err
}

const probeVocab = 4000

func probeWords() []string {
	words := make([]string, probeVocab)
	for i := range words {
		words[i] = datagen.Word(i)
	}
	return words
}

func probeCodec(suffix string, value func(i int) any) (map[string]float64, error) {
	const n = 200000
	words := probeWords()
	kvs := make([]core.KV, n)
	for i := range kvs {
		kvs[i] = core.KV{Key: words[i%probeVocab], Value: value(i)}
	}
	buf := make([]byte, 0, n*48)
	encNs, encAllocs, err := timed(func() (err error) {
		for _, kv := range kvs {
			if buf, err = core.EncodeKV(buf, kv); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	decNs, decAllocs, err := timed(func() error {
		rest := buf
		for len(rest) > 0 {
			_, used, err := core.DecodeKV(rest)
			if err != nil {
				return err
			}
			rest = rest[used:]
		}
		return nil
	})
	return map[string]float64{
		"core.codec_encode_ns_per_kv" + suffix: encNs / n,
		"core.codec_decode_ns_per_kv" + suffix: decNs / n,
		"core.codec_allocs_per_kv" + suffix:    (encAllocs + decAllocs) / n,
	}, err
}

// synthLoader emits perSplit (word, 1) pairs from each of its splits.
type synthLoader struct {
	splits, perSplit int
	words            []string
}

func (l *synthLoader) Plan(env *core.Env) ([]core.Split, error) {
	out := make([]core.Split, l.splits)
	for i := range out {
		out[i] = core.Split{Payload: i, PreferredNode: i % env.NumNodes}
	}
	return out, nil
}

func (l *synthLoader) Load(sp core.Split, ctx core.Context) error {
	base := sp.Payload.(int) * 7
	for i := 0; i < l.perSplit; i++ {
		if err := ctx.Emit(core.KV{Key: l.words[(base+i)%len(l.words)], Value: int64(1)}); err != nil {
			return err
		}
	}
	return nil
}

// probeEmit drives the core record path — emit, bin, coalescer, shuffle,
// partial-reduce fold — with 1 M KVs and no cost models.
func probeEmit() (map[string]float64, error) {
	const nodes, splits, perSplit = 8, 16, 62500
	c, err := cluster.New(cluster.Options{NumNodes: nodes, Core: core.Config{Workers: 4}})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	g := core.NewGraph("probe-emit")
	sink := core.NewCollectSink()
	ld, err := g.AddLoader("load", &synthLoader{splits: splits, perSplit: perSplit, words: probeWords()})
	if err != nil {
		return nil, err
	}
	cnt, err := g.AddPartialReduce("count", hamrapps.SumCounts{})
	if err != nil {
		return nil, err
	}
	sk, err := g.AddSink("out", sink)
	if err != nil {
		return nil, err
	}
	if err := g.Connect(ld, cnt); err != nil {
		return nil, err
	}
	if err := g.Connect(cnt, sk); err != nil {
		return nil, err
	}
	ns, allocs, err := timed(func() error { _, err := c.Run(g); return err })
	if err != nil {
		return nil, err
	}
	var total int64
	for _, kv := range sink.Pairs() {
		total += kv.Value.(int64)
	}
	const n = splits * perSplit
	if total != n {
		return nil, fmt.Errorf("emit probe folded %d of %d KVs", total, n)
	}
	return map[string]float64{
		"core.emit_ns_per_kv":     ns / n,
		"core.emit_allocs_per_kv": allocs / n,
	}, nil
}

// probeSend times InMemNetwork.Send, direct or through a Coalescer, for
// small messages fanned out over 8 destinations, until all are delivered.
func probeSend(coalesce bool) (float64, error) {
	const nodes, n = 8, 400000
	inner := transport.NewInMemNetwork(transport.CostModel{}, nil)
	defer inner.Close()
	var net transport.Network = inner
	var co *transport.Coalescer
	if coalesce {
		co = transport.NewCoalescer(inner, transport.DefaultCoalescerConfig())
		defer co.Close()
		net = co
	}
	var delivered atomic.Int64
	done := make(chan struct{})
	for i := 0; i < nodes; i++ {
		err := net.Register(transport.NodeID(i), func(transport.Message) {
			if delivered.Add(1) == n {
				close(done)
			}
		})
		if err != nil {
			return 0, err
		}
	}
	ns, _, err := timed(func() error {
		for i := 0; i < n; i++ {
			msg := transport.Message{From: 0, To: transport.NodeID(i % nodes), Kind: "probe", Size: 16}
			if err := net.Send(msg); err != nil {
				return err
			}
		}
		if co != nil {
			if err := co.Flush(); err != nil {
				return err
			}
		}
		<-done
		return nil
	})
	return ns / n, err
}

// sortRec / sortFormat: the (string key, string value) record the
// sort_spill workload pushes through extsort, in a raw byte format.
type sortRec struct{ key, value string }

type sortFormat struct{}

func (sortFormat) AppendRecord(kbuf, vbuf []byte, r sortRec) ([]byte, []byte, error) {
	return append(kbuf, r.key...), append(vbuf, r.value...), nil
}

func (sortFormat) DecodeRecord(key, value []byte) (sortRec, error) {
	return sortRec{key: string(key), value: string(value)}, nil
}

func sortRecCompare(a, b sortRec) int { return strings.Compare(a.key, b.key) }

// probeExtsort builds 16 runs on a MemDisk with RunBuilder.Add/Spill, then
// streams them back through MergeGrouped.
func probeExtsort() (map[string]float64, error) {
	const n, runs = 160000, 16
	rows := strings.Split(strings.TrimSpace(string(genSortRows(1, sizes{SortRows: n}).data)), "\n")
	recs := make([]sortRec, n)
	var bytes int64
	for i, row := range rows {
		k, v, _ := strings.Cut(row, " ")
		recs[i] = sortRec{k, v}
		bytes += int64(len(k) + len(v))
	}
	disk := storage.NewMemDisk(0)
	b := extsort.NewRunBuilder(extsort.BuilderConfig[sortRec]{
		Cmp: sortRecCompare, Format: sortFormat{}, Disk: disk,
		RunName:   func(i int) string { return fmt.Sprintf("probe/run-%04d", i) },
		Threshold: bytes / runs,
	})
	buildNs, buildAllocs, err := timed(func() error {
		for _, r := range recs {
			if err := b.Add(r, int64(len(r.key)+len(r.value))); err != nil {
				return err
			}
		}
		return b.Spill()
	})
	if err != nil {
		return nil, err
	}
	if got := len(b.Runs()); got < runs {
		return nil, fmt.Errorf("extsort probe built %d runs, want >= %d", got, runs)
	}
	var merged int
	mergeNs, mergeAllocs, err := timed(func() error {
		sources := make([]extsort.Source[sortRec], 0, len(b.Runs()))
		for _, name := range b.Runs() {
			rr, err := extsort.OpenRun(disk, name, sortFormat{})
			if err != nil {
				return err
			}
			defer rr.Close()
			sources = append(sources, rr)
		}
		return extsort.MergeGrouped(sources, sortRecCompare, nil, func(group []sortRec) error {
			merged += len(group)
			return nil
		})
	})
	if err == nil && merged != n {
		err = fmt.Errorf("extsort probe merged %d of %d records", merged, n)
	}
	return map[string]float64{
		"extsort.build_ns_per_rec": buildNs / n,
		"extsort.merge_ns_per_rec": mergeNs / n,
		"extsort.allocs_per_rec":   (buildAllocs + mergeAllocs) / n,
	}, err
}

const probeChunk = 64 << 10

// writeChunks writes total bytes to w in probeChunk pieces and closes it.
func writeChunks(w io.WriteCloser, total int) error {
	chunk := make([]byte, probeChunk)
	for i := range chunk {
		chunk[i] = byte(i * 31)
	}
	for written := 0; written < total; written += len(chunk) {
		if _, err := w.Write(chunk); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// probeCostDisk times the CostDisk wrapper (byte/op accounting and charge
// computation) over a MemDisk with an all-zero cost model.
func probeCostDisk() (map[string]float64, error) {
	const totalMB = 32
	d := storage.NewCostDisk(storage.NewMemDisk(0), storage.CostModel{}, metrics.NewRegistry())
	writeNs, _, err := timed(func() error {
		w, err := d.Create("probe/file")
		if err != nil {
			return err
		}
		return writeChunks(w, totalMB<<20)
	})
	if err != nil {
		return nil, err
	}
	readNs, _, err := timed(func() error {
		r, err := d.Open("probe/file")
		if err != nil {
			return err
		}
		defer r.Close()
		n, err := io.CopyBuffer(io.Discard, struct{ io.Reader }{r}, make([]byte, probeChunk))
		if err == nil && n != totalMB<<20 {
			err = fmt.Errorf("costdisk probe read %d bytes", n)
		}
		return err
	})
	return map[string]float64{
		"storage.costdisk_write_ns_per_mb": writeNs / totalMB,
		"storage.costdisk_read_ns_per_mb":  readNs / totalMB,
	}, err
}

// probeHDFS times FileSystem.WriteFile / ReadFile over four MemDisks.
func probeHDFS() (map[string]float64, error) {
	const nodes, totalMB = 4, 16
	disks := make([]storage.Disk, nodes)
	for i := range disks {
		disks[i] = storage.NewMemDisk(0)
	}
	fs, err := hdfs.New(disks, hdfs.Config{BlockSize: bench.DefaultSpec().HDFSBlockSize})
	if err != nil {
		return nil, err
	}
	data := make([]byte, totalMB<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	writeNs, _, err := timed(func() error { return fs.WriteFile("probe/file", data, -1) })
	if err != nil {
		return nil, err
	}
	readNs, _, err := timed(func() error {
		got, err := fs.ReadFile("probe/file", -1)
		if err == nil && len(got) != len(data) {
			err = fmt.Errorf("hdfs probe read %d bytes", len(got))
		}
		return err
	})
	return map[string]float64{
		"hdfs.write_ns_per_mb": writeNs / totalMB,
		"hdfs.read_ns_per_mb":  readNs / totalMB,
	}, err
}

// probeCompress frames the wordcount text through the lz codec in 64 KiB
// blocks and decodes it back.
func probeCompress() (map[string]float64, error) {
	codec, err := compress.Lookup("lz")
	if err != nil {
		return nil, err
	}
	text := datagen.Text(datagen.TextConfig{Seed: 1, Vocabulary: probeVocab, Lines: 60000})
	rawMB := float64(len(text)) * mb
	var frames [][]byte
	var encoded int
	encNs, _, _ := timed(func() error {
		for off := 0; off < len(text); off += probeChunk {
			block := text[off:min(off+probeChunk, len(text))]
			f := compress.AppendFrame(codec, nil, block, 0, nil)
			frames = append(frames, f)
			encoded += len(f)
		}
		return nil
	})
	var decoded int
	decNs, _, err := timed(func() error {
		var dst []byte
		for _, f := range frames {
			out, _, err := compress.DecodeFrame(dst[:0], f, nil)
			if err != nil {
				return err
			}
			dst = out
			decoded += len(out)
		}
		return nil
	})
	if err == nil && decoded != len(text) {
		err = fmt.Errorf("compress probe decoded %d of %d bytes", decoded, len(text))
	}
	return map[string]float64{
		"compress.lz_encode_mb_per_s": rawMB / (encNs / 1e9),
		"compress.lz_decode_mb_per_s": rawMB / (decNs / 1e9),
		"compress.lz_ratio":           float64(len(text)) / float64(encoded),
	}, err
}

func probeYarn() (map[string]float64, error) {
	const nodes, n = 8, 200000
	s := yarn.NewScheduler(nodes, 4096)
	defer s.Close()
	ns, _, err := timed(func() error {
		for i := 0; i < n; i++ {
			c, err := s.Allocate(512, i%nodes)
			if err != nil {
				return err
			}
			s.Release(c)
		}
		return nil
	})
	return map[string]float64{"yarn.alloc_release_ns": ns / n}, err
}

func probeKVStore() (map[string]float64, error) {
	const nodes, n = 8, 400000
	words := probeWords()
	t := kvstore.New(nodes, nil).Table("probe")
	add := func(old any) any {
		if old == nil {
			return int64(1)
		}
		return old.(int64) + 1
	}
	ns, _, err := timed(func() error {
		for i := 0; i < n; i++ {
			t.Update(i%nodes, words[i%probeVocab], add)
		}
		return nil
	})
	if err == nil && t.Len() != probeVocab {
		err = fmt.Errorf("kvstore probe holds %d keys, want %d", t.Len(), probeVocab)
	}
	return map[string]float64{"kvstore.update_ns": ns / n}, err
}

// oneRecordLoader emits a single pair: the smallest possible job.
type oneRecordLoader struct{}

func (oneRecordLoader) Plan(*core.Env) ([]core.Split, error) {
	return []core.Split{{Payload: 0, PreferredNode: 0}}, nil
}

func (oneRecordLoader) Load(_ core.Split, ctx core.Context) error {
	return ctx.Emit(core.KV{Key: "k", Value: int64(1)})
}

// probeCluster measures the fixed costs every pair pays: building and
// closing the benchmark's 8x4 cluster, and one empty job through
// Cluster.Run (submit path, completion protocol).
func probeCluster() (map[string]float64, error) {
	const builds, jobs = 5, 40
	newCluster := func() (*cluster.Cluster, error) {
		opts, _ := clusterOptions(bench.DefaultSpec())
		return cluster.New(opts)
	}
	var newClose []float64
	for i := 0; i < builds; i++ {
		ns, _, err := timed(func() error {
			c, err := newCluster()
			if err == nil {
				c.Close()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		newClose = append(newClose, ns/1e9)
	}
	c, err := newCluster()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var emptyJob []float64
	for i := 0; i < jobs; i++ {
		g := core.NewGraph("probe-empty")
		sink := core.NewCountSink()
		ld, err := g.AddLoader("load", oneRecordLoader{})
		if err != nil {
			return nil, err
		}
		sk, err := g.AddSink("out", sink)
		if err != nil {
			return nil, err
		}
		if err := g.Connect(ld, sk); err != nil {
			return nil, err
		}
		ns, _, err := timed(func() error { _, err := c.Run(g); return err })
		if err == nil && sink.Count() != 1 {
			err = fmt.Errorf("empty job delivered %d records", sink.Count())
		}
		if err != nil {
			return nil, err
		}
		emptyJob = append(emptyJob, ns/1e9)
	}
	return map[string]float64{
		"cluster.new_close_s": median(newClose),
		"cluster.empty_job_s": median(emptyJob),
	}, nil
}

func probeDatagen() (map[string]float64, error) {
	var text, movies []byte
	textNs, _, _ := timed(func() error {
		text = datagen.Text(datagen.TextConfig{Seed: 1, Vocabulary: probeVocab, Lines: 30000})
		return nil
	})
	moviesNs, _, _ := timed(func() error {
		movies = datagen.Movies(datagen.MoviesConfig{Seed: 1, Movies: 10000, Users: 150})
		return nil
	})
	return map[string]float64{
		"datagen.text_mb_per_s":   float64(len(text)) * mb / (textNs / 1e9),
		"datagen.movies_mb_per_s": float64(len(movies)) * mb / (moviesNs / 1e9),
	}, nil
}
