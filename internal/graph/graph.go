// Package graph provides the labeled, directed graph substrate used by the
// quantified-matching system: compact adjacency storage indexed by edge
// label, label interning, node-label indexes, d-hop neighborhoods, induced
// subgraphs and text serialization.
//
// A Graph is built incrementally with AddNode/AddEdge and must be finalized
// with Finalize before queries. Finalize sorts adjacency lists (by label,
// then endpoint) and builds the label index; it is idempotent.
//
// A direction's adjacency rows are regions of one arena, found through one
// int32 offset per node. A region is an 8-byte header (the row's run count
// and the region's capacity), the row's label runs — the (label, end
// offset) of each maximal same-label stretch — its edges and any spare
// room. Rows hold a handful of distinct labels, so Me(v) — OutByLabel/
// InByLabel, and with it CountOut and HasEdge — is a scan of a few runs
// right after the header and a slice of the edges right after them, in one
// contiguous region. Every empty row shares the empty region at offset 0:
// a node without edges, a tombstone included, costs its two offsets and no
// arena slots.
package graph

import (
	"fmt"
	"math"
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
	out, in   adjacency
	numEdges  int
	staged    []srcEdge // edges the building calls added since the last build

	// version advances on every change to nodes or edges (building calls,
	// Versioned.Apply, Versioned.Rollback), so state derived from the graph
	// can tell whether it still describes it.
	version Version
	edits   editLog // the latest versions' net edge edits (versioned.go)

	finalized bool
	byLabel   map[LabelID][]NodeID
}

// adjacency holds one direction's rows as regions of one arena. The
// region at offset o is a header slot {To: the row's run count, Label: the
// region's capacity}, then capacity slots holding the row's label runs,
// its edges and spare room. A run slot is the Edge {To: where the run ends
// in the row, Label: its label}, so the last run ends at the row's length,
// and a read finds the runs and the head of the row next to the header.
// Offset 0 is the empty region every empty row shares.
type adjacency struct {
	arena []Edge
	off   []int32
	dead  int // slots of regions no row points at any more
}

// header is a region's header, in slots.
const header = 1

// maxSlots is as far as an int32 offset reaches: a variable, for tests.
var maxSlots = math.MaxInt32

// fitsOffsets refuses an arena of more slots than maxSlots.
func fitsOffsets(slots int) error {
	if slots > maxSlots {
		return fmt.Errorf("graph: %d adjacency slots pass the offset range of %d", slots, maxSlots)
	}
	return nil
}

// addRow gives a new node an empty row.
func (a *adjacency) addRow() {
	if len(a.arena) == 0 {
		a.arena = make([]Edge, header)
	}
	a.off = append(a.off, 0)
}

// region returns the region at o — its runs and then its edges, with the
// region's capacity — and its run count. Without runs, arena[o+r] is the
// header, whose To is 0: the row's length either way.
func (a *adjacency) region(o int) ([]Edge, int) {
	r := int(a.arena[o].To)
	lo := o + header
	return a.arena[lo : lo+r+int(a.arena[o+r].To) : lo+int(a.arena[o].Label)], r
}

// rowAt returns the row of the region at o.
func (a *adjacency) rowAt(o int) []Edge {
	r := int(a.arena[o].To)
	lo := o + header + r
	hi := lo + int(a.arena[o+r].To)
	return a.arena[lo:hi:hi]
}

func (a *adjacency) row(v NodeID) []Edge { return a.rowAt(int(a.off[v])) }

// labelSlice returns the stretch of v's row carrying label l: a scan of the
// row's runs, which are as many as the row has distinct labels.
func (a *adjacency) labelSlice(v NodeID, l LabelID) []Edge {
	o := int(a.off[v])
	r, start := int(a.arena[o].To), 0
	for i := o + header; i <= o+r; i++ {
		run := a.arena[i]
		if run.Label == l {
			lo := o + header + r
			return a.arena[lo+start : lo+int(run.To) : lo+int(run.To)]
		}
		if run.Label > l {
			break
		}
		start = int(run.To)
	}
	return nil
}

// endsRun reports whether row[i] is the last edge of its label run.
func endsRun(row []Edge, i int) bool {
	return i+1 == len(row) || row[i+1].Label != row[i].Label
}

// appendRuns appends the run slots of a sorted row to dst.
func appendRuns(dst []Edge, row []Edge) []Edge {
	for i, e := range row {
		if endsRun(row, i) {
			dst = append(dst, Edge{To: NodeID(i + 1), Label: e.Label})
		}
	}
	return dst
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	g := &Graph{nodeLabel: make([]LabelID, 0, n)}
	g.out.off, g.in.off = make([]int32, 0, n), make([]int32, 0, n)
	return g
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
	g.out.addRow()
	g.in.addRow()
	g.finalized = false
	g.version++
	return id
}

// AddEdge adds a directed edge from -> to with the given label string.
func (g *Graph) AddEdge(from, to NodeID, label string) {
	g.AddEdgeLabel(from, to, g.Label(label))
}

// AddEdgeLabel adds a directed edge with an already-interned label. It
// is staged: Out, In and the other reads see it after Finalize, which also
// ignores duplicate (from, to, label) triples.
func (g *Graph) AddEdgeLabel(from, to NodeID, l LabelID) {
	g.staged = append(g.staged, srcEdge{from, Edge{To: to, Label: l}})
	g.numEdges++
	g.finalized = false
	g.version++
}

// NodeLabel returns the label id of node v.
func (g *Graph) NodeLabel(v NodeID) LabelID { return g.nodeLabel[v] }

// NodeLabelName returns the label string of node v.
func (g *Graph) NodeLabelName(v NodeID) string { return g.interner.Name(g.nodeLabel[v]) }

// Finalize sorts adjacency, removes duplicate parallel edges with identical
// labels, lays each direction's rows out in one arena, and builds the
// node-label index: the rows built before and the staged edges go through
// the same build as a loaded graph's edges. It panics on a graph whose
// layout passes the int32 offset range.
func (g *Graph) Finalize() {
	if g.finalized {
		return
	}
	if err := g.build(g.layOut(g.staged)); err != nil {
		panic(err)
	}
}

func (g *Graph) mustFinal() {
	if !g.finalized {
		panic("graph: query before Finalize")
	}
}

// Out returns the sorted out-adjacency of v. The slice must not be modified.
func (g *Graph) Out(v NodeID) []Edge { return g.out.row(v) }

// In returns the sorted in-adjacency of v (Edge.To is the source node).
func (g *Graph) In(v NodeID) []Edge { return g.in.row(v) }

// OutDegree returns the total out-degree of v.
func (g *Graph) OutDegree(v NodeID) int { return len(g.Out(v)) }

// InDegree returns the total in-degree of v.
func (g *Graph) InDegree(v NodeID) int { return len(g.In(v)) }

// OutByLabel returns the contiguous sub-slice of Out(v) whose edges carry
// label l. This is Me(v) from the paper for an edge labeled l.
func (g *Graph) OutByLabel(v NodeID, l LabelID) []Edge {
	g.mustFinal()
	return g.out.labelSlice(v, l)
}

// InByLabel returns the in-edges of v carrying label l.
func (g *Graph) InByLabel(v NodeID, l LabelID) []Edge {
	g.mustFinal()
	return g.in.labelSlice(v, l)
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
	for v := range g.nodeLabel {
		if d := g.OutDegree(NodeID(v)); d > s.MaxOutDeg {
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
