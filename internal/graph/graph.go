// Package graph provides the labeled, directed graph substrate used by the
// quantified-matching system: compact adjacency storage indexed by edge
// label, label interning, node-label indexes, d-hop neighborhoods, induced
// subgraphs and text serialization.
//
// A Graph is built incrementally with AddNode/AddEdge and must be finalized
// with Finalize before queries. Finalize sorts adjacency lists (by label,
// then endpoint) and builds the label index; it is idempotent.
//
// Every adjacency row carries a label-run index: the (label, end offset)
// of each maximal same-label stretch of the row. Rows hold a handful of
// distinct labels, so Me(v) — OutByLabel/InByLabel, and with it CountOut
// and HasEdge — is a scan of a few pairs instead of binary searches over
// the whole row. A row and its runs are always replaced together.
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node within a Graph. IDs are dense, starting at 0.
type NodeID int32

// LabelID identifies an interned label (node or edge) within a Graph.
type LabelID int32

// NoLabel is returned by lookups for labels that are not present.
const NoLabel LabelID = -1

// Edge is one half-edge in an adjacency list: the other endpoint and the
// edge label.
type Edge struct {
	To    NodeID
	Label LabelID
}

// Graph is a labeled directed multigraph. The zero value is an empty graph
// ready for use.
type Graph struct {
	interner  Interner
	nodeLabel []LabelID
	out       [][]Edge
	in        [][]Edge
	numEdges  int

	// version advances on every change to nodes or edges (building calls,
	// Versioned.Apply, Versioned.Rollback), so state derived from the graph
	// can tell whether it still describes it.
	version Version
	edits   editLog // the latest versions' net edge edits (versioned.go)

	finalized bool
	byLabel   map[LabelID][]NodeID
	// outRuns[v] / inRuns[v] index the label runs of out[v] / in[v]; valid
	// while finalized.
	outRuns [][]labelRun
	inRuns  [][]labelRun
}

// labelRun closes one same-label stretch of a sorted adjacency row: the
// run's edges end at offset end (exclusive) and begin where the previous
// run ended.
type labelRun struct {
	label LabelID
	end   int32
}

// endsRun reports whether row[i] is the last edge of its label run.
func endsRun(row []Edge, i int) bool {
	return i+1 == len(row) || row[i+1].Label != row[i].Label
}

// appendRuns appends the label runs of a sorted row to dst.
func appendRuns(dst []labelRun, row []Edge) []labelRun {
	for i, e := range row {
		if endsRun(row, i) {
			dst = append(dst, labelRun{e.Label, int32(i + 1)})
		}
	}
	return dst
}

// indexRows rebuilds the run index of every row into one backing array
// per direction.
func indexRows(adj [][]Edge) [][]labelRun {
	total := 0
	for _, row := range adj {
		for i := range row {
			if endsRun(row, i) {
				total++
			}
		}
	}
	backing := make([]labelRun, 0, total)
	runs := make([][]labelRun, len(adj))
	for v, row := range adj {
		lo := len(backing)
		backing = appendRuns(backing, row)
		// Full slice expression: a later in-place rebuild of this row's
		// runs must not grow into its neighbour's.
		runs[v] = backing[lo:len(backing):len(backing)]
	}
	return runs
}

// labelSlice returns the stretch of row carrying label l: a scan of the
// row's runs, which are as many as the row has distinct labels.
func labelSlice(row []Edge, runs []labelRun, l LabelID) []Edge {
	i := 0
	for i < len(runs) && runs[i].label < l {
		i++
	}
	if i == len(runs) || runs[i].label != l {
		return nil
	}
	start := int32(0)
	if i > 0 {
		start = runs[i-1].end
	}
	return row[start:runs[i].end]
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	return &Graph{
		nodeLabel: make([]LabelID, 0, n),
		out:       make([][]Edge, 0, n),
		in:        make([][]Edge, 0, n),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodeLabel) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Version returns the token of the graph's current state: it differs from
// every earlier state's, so a holder of derived state (an OldView, a
// match.Bound) compares tokens instead of trusting that nobody wrote.
func (g *Graph) Version() Version { return g.version }

// Size returns |G| = |V| + |E|, the size measure used by the paper.
func (g *Graph) Size() int { return g.NumNodes() + g.NumEdges() }

// Label interns s and returns its id.
func (g *Graph) Label(s string) LabelID { return g.interner.Intern(s) }

// LookupLabel returns the id for s, or NoLabel if s was never interned.
func (g *Graph) LookupLabel(s string) LabelID { return g.interner.Lookup(s) }

// LabelName returns the string for an interned label id.
func (g *Graph) LabelName(id LabelID) string { return g.interner.Name(id) }

// AddNode appends a node with the given label and returns its id.
func (g *Graph) AddNode(label string) NodeID {
	return g.AddNodeLabel(g.Label(label))
}

// AddNodeLabel appends a node with an already-interned label.
func (g *Graph) AddNodeLabel(l LabelID) NodeID {
	id := NodeID(len(g.nodeLabel))
	g.nodeLabel = append(g.nodeLabel, l)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.finalized = false
	g.version++
	return id
}

// AddEdge adds a directed edge from -> to with the given label string.
func (g *Graph) AddEdge(from, to NodeID, label string) {
	g.AddEdgeLabel(from, to, g.Label(label))
}

// AddEdgeLabel adds a directed edge with an already-interned label.
// Duplicate (from, to, label) triples are ignored at Finalize time.
func (g *Graph) AddEdgeLabel(from, to NodeID, l LabelID) {
	g.out[from] = append(g.out[from], Edge{To: to, Label: l})
	g.in[to] = append(g.in[to], Edge{To: from, Label: l})
	g.numEdges++
	g.finalized = false
	g.version++
}

// NodeLabel returns the label id of node v.
func (g *Graph) NodeLabel(v NodeID) LabelID { return g.nodeLabel[v] }

// NodeLabelName returns the label string of node v.
func (g *Graph) NodeLabelName(v NodeID) string { return g.interner.Name(g.nodeLabel[v]) }

// Finalize sorts adjacency, removes duplicate parallel edges with identical
// labels, packs the rows of each direction into one array, and builds the
// node-label index and the rows' label-run indexes: the out-rows, laid
// out back to back, go through the same build as a loaded graph's edges.
func (g *Graph) Finalize() {
	if g.finalized {
		return
	}
	backing := make([]Edge, 0, g.numEdges)
	end := make([]int, len(g.out))
	for v, row := range g.out {
		backing = append(backing, row...)
		end[v] = len(backing)
	}
	// The build makes both directions afresh: the old rows can go first.
	g.out, g.in = nil, nil
	g.build(backing, end)
}

func (g *Graph) mustFinal() {
	if !g.finalized {
		panic("graph: query before Finalize")
	}
}

// Out returns the sorted out-adjacency of v. The slice must not be modified.
func (g *Graph) Out(v NodeID) []Edge { return g.out[v] }

// In returns the sorted in-adjacency of v (Edge.To is the source node).
func (g *Graph) In(v NodeID) []Edge { return g.in[v] }

// OutDegree returns the total out-degree of v.
func (g *Graph) OutDegree(v NodeID) int { return len(g.out[v]) }

// InDegree returns the total in-degree of v.
func (g *Graph) InDegree(v NodeID) int { return len(g.in[v]) }

// OutByLabel returns the contiguous sub-slice of Out(v) whose edges carry
// label l. This is Me(v) from the paper for an edge labeled l.
func (g *Graph) OutByLabel(v NodeID, l LabelID) []Edge {
	g.mustFinal()
	return labelSlice(g.out[v], g.outRuns[v], l)
}

// InByLabel returns the in-edges of v carrying label l.
func (g *Graph) InByLabel(v NodeID, l LabelID) []Edge {
	g.mustFinal()
	return labelSlice(g.in[v], g.inRuns[v], l)
}

// CountOut returns |Me(v)| — the number of out-edges of v labeled l. Rows
// are deduplicated, so it is the length of v's l-run.
func (g *Graph) CountOut(v NodeID, l LabelID) int {
	return len(g.OutByLabel(v, l))
}

// HasEdge reports whether the edge (from, to) with label l exists: one
// binary search inside from's l-run.
func (g *Graph) HasEdge(from, to NodeID, l LabelID) bool {
	es := g.OutByLabel(from, l)
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(es) && es[lo].To == to
}

// NodesByLabel returns all nodes carrying label l. The slice must not be
// modified.
func (g *Graph) NodesByLabel(l LabelID) []NodeID {
	g.mustFinal()
	return g.byLabel[l]
}

// NodesByLabelName is NodesByLabel for a label string; it returns nil when
// the label does not occur.
func (g *Graph) NodesByLabelName(s string) []NodeID {
	l := g.LookupLabel(s)
	if l == NoLabel {
		return nil
	}
	return g.NodesByLabel(l)
}

// Labels returns the number of distinct interned labels.
func (g *Graph) Labels() int { return g.interner.Len() }

// Neighborhood returns the set of nodes within d undirected hops of v
// (including v itself), in ascending order. This is the node set of Nd(v).
func (g *Graph) Neighborhood(v NodeID, d int) []NodeID {
	g.mustFinal()
	seen := map[NodeID]struct{}{v: {}}
	frontier := []NodeID{v}
	for hop := 0; hop < d; hop++ {
		var next []NodeID
		visit := func(u NodeID) {
			if _, ok := seen[u]; !ok {
				seen[u] = struct{}{}
				next = append(next, u)
			}
		}
		for _, u := range frontier {
			for _, e := range g.Out(u) {
				visit(e.To)
			}
			for _, e := range g.In(u) {
				visit(e.To)
			}
		}
		frontier = next
	}
	out := make([]NodeID, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// Induced returns the subgraph induced by nodes, along with the mapping from
// new (local) ids to the original ids. Labels share the same interner values
// by name. The input need not be sorted; duplicates are ignored.
func (g *Graph) Induced(nodes []NodeID) (*Graph, []NodeID) {
	g.mustFinal()
	return InducedOf(g, nodes)
}

// Stats summarizes a graph for logging and the experiment reports.
type Stats struct {
	Nodes, Edges int
	NodeLabels   int
	MaxOutDeg    int
	AvgDeg       float64
}

// ComputeStats returns summary statistics of the graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	seen := map[LabelID]bool{}
	for _, l := range g.nodeLabel {
		seen[l] = true
	}
	s.NodeLabels = len(seen)
	for v := range g.out {
		if d := len(g.out[v]); d > s.MaxOutDeg {
			s.MaxOutDeg = d
		}
	}
	if s.Nodes > 0 {
		s.AvgDeg = float64(s.Edges) / float64(s.Nodes)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d labels=%d maxOut=%d avgDeg=%.2f",
		s.Nodes, s.Edges, s.NodeLabels, s.MaxOutDeg, s.AvgDeg)
}
