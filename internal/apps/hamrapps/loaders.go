// Package hamrapps implements the paper's eight benchmarks in the flowlet
// model (Algorithms 1-4 and §4): K-Means, Classification, PageRank,
// K-Cliques, WordCount, HistogramMovies, HistogramRatings and NaiveBayes
// training. Each Build* function returns a ready-to-run flowlet graph plus
// the sinks needed to read results back.
package hamrapps

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"github.com/hamr-go/hamr/internal/cluster"
	"github.com/hamr-go/hamr/internal/core"
	"github.com/hamr-go/hamr/internal/hdfs"
	"github.com/hamr-go/hamr/internal/kvstore"
	"github.com/hamr-go/hamr/internal/storage"
	"github.com/hamr-go/hamr/internal/transport"
)

// Position encodes where a text line lives: node-local file + byte offset.
// K-Means ships positions instead of records (§3.3) and routes back to the
// node to re-read them.
type Position struct {
	Node   int
	File   string
	Offset int64
}

// String renders a position as "node|file|offset".
func (p Position) String() string {
	b := make([]byte, 0, 64)
	b = strconv.AppendInt(b, int64(p.Node), 10)
	b = append(append(append(b, '|'), p.File...), '|')
	return string(strconv.AppendInt(b, p.Offset, 10))
}

// ParsePosition parses the String form.
func ParsePosition(s string) (Position, error) {
	parts := strings.SplitN(s, "|", 3)
	if len(parts) != 3 {
		return Position{}, fmt.Errorf("hamrapps: bad position %q", s)
	}
	node, err := strconv.Atoi(parts[0])
	if err != nil {
		return Position{}, fmt.Errorf("hamrapps: bad position node in %q", s)
	}
	off, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return Position{}, fmt.Errorf("hamrapps: bad position offset in %q", s)
	}
	return Position{Node: node, File: parts[1], Offset: off}, nil
}

// LocalTextLoader reads text files from each node's local disk — the
// paper's HAMR deployment ("input and output data is distributed between
// the local disks of each node", §5.1). Files maps node id -> file names
// on that node's disk. When WithPosition is set, each emitted pair carries
// the line's Position as its key; otherwise keys are empty.
type LocalTextLoader struct {
	Files        map[int][]string
	WithPosition bool
}

type localTextSplit struct {
	node int
	file string
}

// Plan implements core.Loader: one split per (node, file).
func (l *LocalTextLoader) Plan(env *core.Env) ([]core.Split, error) {
	var splits []core.Split
	for node, files := range l.Files {
		for _, f := range files {
			splits = append(splits, core.Split{
				Payload:       localTextSplit{node: node, file: f},
				PreferredNode: node,
			})
		}
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("hamrapps: LocalTextLoader has no files")
	}
	return splits, nil
}

// Load implements core.Loader.
func (l *LocalTextLoader) Load(sp core.Split, ctx core.Context) error {
	s := sp.Payload.(localTextSplit)
	disk, ok := ctx.Service(cluster.ServiceDisk).(storage.Disk)
	if !ok {
		return fmt.Errorf("hamrapps: no disk service on node %d", ctx.Node())
	}
	f, err := disk.Open(s.file)
	if err != nil {
		return fmt.Errorf("hamrapps: open %s on node %d: %w", s.file, s.node, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	// Lines may reach 1 MiB, but the scanner grows on demand: starting at
	// the maximum cost every split a megabyte it never used.
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var off int64
	for sc.Scan() {
		line := sc.Text()
		key := ""
		if l.WithPosition {
			key = Position{Node: ctx.Node(), File: s.file, Offset: off}.String()
		}
		off += int64(len(line)) + 1
		if line == "" {
			continue
		}
		if err := ctx.Emit(core.KV{Key: key, Value: line}); err != nil {
			return err
		}
	}
	return sc.Err()
}

// parseLoader hands each line its inner loader emits to parse, which emits
// the pairs that enter the graph in its place: the edge-list rows' loaders.
type parseLoader struct {
	inner core.Loader
	parse func(line string, ctx core.Context) error
}

// Plan implements core.Loader.
func (l *parseLoader) Plan(env *core.Env) ([]core.Split, error) { return l.inner.Plan(env) }

// Load implements core.Loader.
func (l *parseLoader) Load(sp core.Split, ctx core.Context) error {
	return l.inner.Load(sp, parseCtx{ctx, l.parse})
}

// parseCtx is the context a parseLoader's inner loader emits its lines to.
type parseCtx struct {
	core.Context
	parse func(line string, ctx core.Context) error
}

// Emit implements core.Context.
func (c parseCtx) Emit(kv core.KV) error { return c.parse(kv.Value.(string), c.Context) }

// HDFSTextLoader streams an HDFS file (or prefix) split by block, emitting
// one pair per line with empty keys. Splits prefer the nodes that hold
// each block.
type HDFSTextLoader struct {
	Prefix string
}

// Plan implements core.Loader.
func (l *HDFSTextLoader) Plan(env *core.Env) ([]core.Split, error) {
	fs, ok := env.Service(cluster.ServiceHDFS).(*hdfs.FileSystem)
	if !ok {
		return nil, fmt.Errorf("hamrapps: no hdfs service")
	}
	splits, err := fs.SplitsGlob(l.Prefix)
	if err != nil {
		return nil, err
	}
	out := make([]core.Split, 0, len(splits))
	for _, sp := range splits {
		pref := -1
		if len(sp.Hosts) > 0 {
			pref = int(sp.Hosts[0])
		}
		out = append(out, core.Split{Payload: sp, PreferredNode: pref, Size: sp.Length})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("hamrapps: no hdfs files under %q", l.Prefix)
	}
	return out, nil
}

// Load implements core.Loader.
func (l *HDFSTextLoader) Load(sp core.Split, ctx core.Context) error {
	fs, ok := ctx.Service(cluster.ServiceHDFS).(*hdfs.FileSystem)
	if !ok {
		return fmt.Errorf("hamrapps: no hdfs service on node %d", ctx.Node())
	}
	hs := sp.Payload.(hdfs.Split)
	it, err := fs.OpenLines(hs, transport.NodeID(ctx.Node()))
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		line, _, ok := it.Next()
		if !ok {
			return it.Err()
		}
		if line == "" {
			continue
		}
		// The line is a view of its HDFS block, and a flowlet downstream
		// may hold the value (or a word cut from it) for the rest of the
		// job: emit a copy, so no block outlives its split.
		if err := ctx.Emit(core.KV{Key: "", Value: strings.Clone(line)}); err != nil {
			return err
		}
	}
}

// Store fetches the cluster kv-store service from a flowlet context.
func Store(ctx core.Context) (*kvstore.Store, error) {
	s, ok := ctx.Service(cluster.ServiceKVStore).(*kvstore.Store)
	if !ok {
		return nil, fmt.Errorf("hamrapps: no kvstore service on node %d", ctx.Node())
	}
	return s, nil
}

// DistributeLocalText splits data line-preserving into one local file per
// node and returns the LocalTextLoader file map. parts defaults to the
// cluster size. Trailing newlines are dropped, each part holds
// ⌈lines/parts⌉ lines ending in '\n', and part p goes to node p mod N.
// Each part is a slice of data handed straight to the disk, which copies
// what it is given; only an input's last line without its '\n' is copied
// here.
func DistributeLocalText(c *cluster.Cluster, name string, data []byte, parts int) (map[int][]string, error) {
	if parts <= 0 {
		parts = c.NumNodes()
	}
	text := bytes.TrimRight(data, "\n")
	lines := bytes.Count(text, []byte{'\n'}) + 1
	per := (lines + parts - 1) / parts
	files := make(map[int][]string)
	start := 0
	for p := 0; p*per < lines; p++ {
		// next is one past the '\n' that ends the part's last line. The
		// text's last line lost its '\n' to TrimRight, so it counts as
		// ending at len(text).
		next := start
		for i := 0; i < per; i++ {
			nl := bytes.IndexByte(text[next:], '\n')
			if nl < 0 {
				next = len(text) + 1
				break
			}
			next += nl + 1
		}
		var chunk []byte
		if next <= len(data) {
			chunk = data[start:next]
		} else {
			chunk = append(append(make([]byte, 0, len(data)-start+1), data[start:]...), '\n')
		}
		node := p % c.NumNodes()
		fname := fmt.Sprintf("input/%s-part-%04d", name, p)
		if err := c.WriteLocalText(node, fname, chunk); err != nil {
			return nil, err
		}
		files[node] = append(files[node], fname)
		start = next
	}
	return files, nil
}
