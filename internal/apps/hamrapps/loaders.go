// Package hamrapps implements the paper's eight benchmarks in the flowlet
// model (Algorithms 1-4 and §4): K-Means, Classification, PageRank,
// K-Cliques, WordCount, HistogramMovies, HistogramRatings and NaiveBayes
// training. Each Build* function returns a ready-to-run flowlet graph plus
// the sinks needed to read results back.
package hamrapps

import (
	"bufio"
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
// cluster size.
func DistributeLocalText(c *cluster.Cluster, name string, data []byte, parts int) (map[int][]string, error) {
	if parts <= 0 {
		parts = c.NumNodes()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	per := (len(lines) + parts - 1) / parts
	files := make(map[int][]string)
	for p := 0; p < parts; p++ {
		lo := p * per
		if lo >= len(lines) {
			break
		}
		hi := lo + per
		if hi > len(lines) {
			hi = len(lines)
		}
		node := p % c.NumNodes()
		fname := fmt.Sprintf("input/%s-part-%04d", name, p)
		chunk := strings.Join(lines[lo:hi], "\n") + "\n"
		if err := c.WriteLocalText(node, fname, []byte(chunk)); err != nil {
			return nil, err
		}
		files[node] = append(files[node], fname)
	}
	return files, nil
}
