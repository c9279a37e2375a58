package graph

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/scan"
)

// The append-and-sort builders the counting build replaced, kept as the
// oracles it must equal: every row appended edge by edge, then sorted,
// deduplicated and laid out region after region.

// referenceFinalize sorts and deduplicates every row, rows built before
// and staged edges alike, and lays each direction out in one arena.
func referenceFinalize(g *Graph) {
	if g.finalized {
		return
	}
	out, in := make([][]Edge, g.NumNodes()), make([][]Edge, g.NumNodes())
	for v := range out {
		out[v], in[v] = slices.Clone(g.Out(NodeID(v))), slices.Clone(g.In(NodeID(v)))
	}
	for _, e := range g.staged {
		out[e.From] = append(out[e.From], e.Edge)
		in[e.To] = append(in[e.To], Edge{To: e.From, Label: e.Label})
	}
	dedup := func(adj [][]Edge) int {
		removed := 0
		for v := range adj {
			es := adj[v]
			slices.SortFunc(es, func(a, b Edge) int {
				return cmp.Or(cmp.Compare(a.Label, b.Label), cmp.Compare(a.To, b.To))
			})
			w := 0
			for i, e := range es {
				if i > 0 && e == es[i-1] {
					removed++
					continue
				}
				es[w] = e
				w++
			}
			adj[v] = es[:w]
		}
		return removed
	}
	g.numEdges -= dedup(out)
	dedup(in)
	g.out, g.in, g.staged = referenceLayout(out), referenceLayout(in), nil
	g.byLabel = make(map[LabelID][]NodeID)
	for v, l := range g.nodeLabel {
		g.byLabel[l] = append(g.byLabel[l], NodeID(v))
	}
	g.finalized = true
}

// referenceLayout lays rows out region after region behind the empty
// region: a header, the runs a scan of the row finds, the edges.
func referenceLayout(rows [][]Edge) adjacency {
	a := adjacency{arena: make([]Edge, header), off: make([]int32, len(rows))}
	for v, row := range rows {
		if len(row) == 0 {
			continue
		}
		var runs []Edge
		for i, e := range row {
			if i+1 == len(row) || row[i+1].Label != e.Label {
				runs = append(runs, Edge{To: NodeID(i + 1), Label: e.Label})
			}
		}
		a.off[v] = int32(len(a.arena))
		a.arena = append(a.arena, Edge{To: NodeID(len(runs)), Label: LabelID(len(runs) + len(row))})
		a.arena = append(append(a.arena, runs...), row...)
	}
	return a
}

// referenceWriteTo is WriteTo as it was before the append writer: one
// fmt.Fprintf and one scan.Quote per line, through a bufio.Writer.
func referenceWriteTo(g *Graph, w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "graph %d\n", g.NumNodes())); err != nil {
		return n, err
	}
	for v := 0; v < g.NumNodes(); v++ {
		if err := count(fmt.Fprintf(bw, "n %d %s\n", v, scan.Quote(g.NodeLabelName(NodeID(v))))); err != nil {
			return n, err
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(NodeID(v)) {
			if err := count(fmt.Fprintf(bw, "e %d %d %s\n", v, e.To, scan.Quote(g.interner.Name(e.Label)))); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// referenceRead is Read line by line through TrimSpace and scan.Fields,
// under the same header rules.
func referenceRead(r io.Reader, maxSize int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var g *Graph
	declared, line := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields, err := scan.Fields(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		switch fields[0] {
		case "graph":
			if g != nil || len(fields) != 2 {
				return nil, fmt.Errorf("line %d: bad header", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > maxSize {
				return nil, fmt.Errorf("line %d: bad node count", line)
			}
			g, declared = New(0), n
		case "n":
			if g == nil || len(fields) != 3 {
				return nil, fmt.Errorf("line %d: bad node line", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id != g.NumNodes() || id >= declared {
				return nil, fmt.Errorf("line %d: bad node id", line)
			}
			g.AddNode(fields[2])
		case "e":
			if g == nil || len(fields) != 4 {
				return nil, fmt.Errorf("line %d: bad edge line", line)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil ||
				from < 0 || from >= g.NumNodes() || to < 0 || to >= g.NumNodes() {
				return nil, fmt.Errorf("line %d: bad edge endpoints", line)
			}
			g.AddEdge(NodeID(from), NodeID(to), fields[3])
		default:
			return nil, fmt.Errorf("line %d: unknown record", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil || g.NumNodes() != declared {
		return nil, fmt.Errorf("no header, or too few node lines")
	}
	referenceFinalize(g)
	return g, nil
}

// referenceReadBinary is ReadBinary one byte-wise varint and one
// AddEdgeLabel at a time.
func referenceReadBinary(r io.Reader, maxSize int) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != binaryMagic {
		return nil, fmt.Errorf("bad magic")
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }
	nLabels, err := get()
	if err != nil || nLabels > 1<<24 {
		return nil, fmt.Errorf("bad label count")
	}
	g := New(0)
	for i := uint64(0); i < nLabels; i++ {
		ln, err := get()
		if err != nil || ln > 1<<20 {
			return nil, fmt.Errorf("bad label length")
		}
		buf := make([]byte, ln)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, err
		}
		if g.Label(string(buf)) != LabelID(i) {
			return nil, fmt.Errorf("duplicate label")
		}
	}
	nNodes, err := get()
	if err != nil || nNodes > 1<<31 || nNodes > uint64(maxSize) {
		return nil, fmt.Errorf("bad node count")
	}
	for i := uint64(0); i < nNodes; i++ {
		l, err := get()
		if err != nil || l >= nLabels {
			return nil, fmt.Errorf("bad node")
		}
		g.AddNodeLabel(LabelID(l))
	}
	nEdges, err := get()
	if err != nil || nEdges > uint64(maxSize)-nNodes {
		return nil, fmt.Errorf("bad edge count")
	}
	prev := uint64(0)
	for i := uint64(0); i < nEdges; i++ {
		delta, err := get()
		if err != nil {
			return nil, err
		}
		from := prev + delta
		prev = from
		to, err := get()
		if err != nil {
			return nil, err
		}
		l, err := get()
		if err != nil {
			return nil, err
		}
		if from >= nNodes || to >= nNodes || l >= nLabels {
			return nil, fmt.Errorf("edge out of range")
		}
		g.AddEdgeLabel(NodeID(from), NodeID(to), LabelID(l))
	}
	referenceFinalize(g)
	return g, nil
}

// referenceInducedOf is InducedOf through a map of local ids and one
// label lookup by name per edge.
func referenceInducedOf(g View, nodes []NodeID) (*Graph, []NodeID) {
	local := make(map[NodeID]NodeID, len(nodes))
	sub := New(len(nodes))
	var toGlobal []NodeID
	for _, v := range nodes {
		if _, ok := local[v]; ok {
			continue
		}
		local[v] = sub.AddNode(g.NodeLabelName(v))
		toGlobal = append(toGlobal, v)
	}
	for _, v := range toGlobal {
		for _, e := range g.Out(v) {
			if lu, ok := local[e.To]; ok {
				sub.AddEdge(local[v], lu, g.LabelName(e.Label))
			}
		}
	}
	referenceFinalize(sub)
	return sub, toGlobal
}

// sameBuild reports how two finalized graphs differ, if they do, in
// anything a build sets: node labels, interner order, both directions'
// arenas slot for slot (rows, runs and capacities, and the order of the
// regions) with their offsets, an arena with a 32nd to spare, the label
// index and the edge count.
func sameBuild(got, want *Graph) error {
	switch {
	case !got.finalized || !want.finalized:
		return fmt.Errorf("finalized %v, want %v", got.finalized, want.finalized)
	case got.numEdges != want.numEdges:
		return fmt.Errorf("%d edges, want %d", got.numEdges, want.numEdges)
	case !slices.Equal(got.nodeLabel, want.nodeLabel):
		return fmt.Errorf("node labels differ")
	case !slices.Equal(got.interner.names, want.interner.names):
		return fmt.Errorf("interner %q, want %q", got.interner.names, want.interner.names)
	case len(got.interner.byName) != len(want.interner.byName):
		return fmt.Errorf("interner maps %d names, want %d", len(got.interner.byName), len(want.interner.byName))
	case len(got.byLabel) != len(want.byLabel):
		return fmt.Errorf("label index has %d labels, want %d", len(got.byLabel), len(want.byLabel))
	}
	for l, vs := range want.byLabel {
		if !slices.Equal(got.byLabel[l], vs) {
			return fmt.Errorf("label %d lists %v, want %v", l, got.byLabel[l], vs)
		}
	}
	for d, name := range []string{"out", "in"} {
		a, b := got.adj(d == 1), want.adj(d == 1)
		switch {
		case !slices.Equal(a.off, b.off):
			return fmt.Errorf("%s: region offsets %v, want %v", name, a.off, b.off)
		case !slices.Equal(a.arena, b.arena):
			return fmt.Errorf("%s: arena %v, want %v", name, a.arena, b.arena)
		case cap(a.arena) != len(a.arena)+len(a.arena)/arenaSpare || a.dead != 0:
			return fmt.Errorf("%s: arena of %d slots has capacity %d and %d dead", name, len(a.arena), cap(a.arena), a.dead)
		}
	}
	return nil
}
