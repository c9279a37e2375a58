// Versioned in-place graph maintenance: apply a mutation batch as a
// delta over the live adjacency instead of rebuilding the world. A
// batch applied through Versioned.Apply edits the finalized indexes
// directly (copy-on-write per adjacency row) and hands back an OldView
// — a cheap pre-batch read handle over exactly the rows the batch
// displaced — so the §5.2 affected-set computation ("deletions in the
// old graph, insertions in the new") works without two full graphs.
// Per-batch cost is proportional to |batch| plus the degree of the
// touched nodes, the Berkholz–Keppeler–Schweikardt target of cost
// proportional to the change rather than the database.
package graph

import (
	"fmt"
	"sort"
)

// Version is a monotonically increasing token identifying a graph's
// state. It lives on the Graph: every successful Versioned.Apply (and
// Rollback) advances it, as does every building call; an OldView is pinned
// to the version its batch created and panics if read after a later one.
type Version uint64

// MutationOp enumerates the graph-level delta vocabulary. It mirrors
// internal/store's mutation ops one-for-one (store depends on graph,
// not the other way around).
type MutationOp uint8

const (
	// MutInvalid is the zero op; Apply rejects it.
	MutInvalid MutationOp = iota
	// MutAddNode appends a node with Label; From/To are ignored.
	MutAddNode
	// MutAddEdge inserts edge (From, To, Label); a duplicate is a no-op.
	MutAddEdge
	// MutRemoveEdge deletes edge (From, To, Label); absence is a no-op.
	MutRemoveEdge
	// MutRemoveNode isolates node From (removes every incident edge)
	// but keeps its slot and label, the store's tombstone semantics:
	// node ids stay dense and stable.
	MutRemoveNode
)

// Mutation is one graph change in the versioned core's vocabulary.
type Mutation struct {
	Op       MutationOp
	From, To NodeID
	Label    string
}

// View is the read surface shared by a live *Graph and an OldView:
// everything update planning, affected-set computation, and fragment
// (re-)shipping need. *Graph satisfies it directly.
type View interface {
	NumNodes() int
	NumEdges() int
	NodeLabelName(v NodeID) string
	LabelName(id LabelID) string
	LookupLabel(s string) LabelID
	Out(v NodeID) []Edge
	In(v NodeID) []Edge
	HasEdge(from, to NodeID, l LabelID) bool
	Neighborhood(v NodeID, d int) []NodeID
}

var (
	_ View = (*Graph)(nil)
	_ View = (*OldView)(nil)
)

// Versioned wraps a finalized Graph and maintains it in place under
// mutation batches. The wrapped graph stays finalized at all times:
// adjacency rows keep their (label, endpoint) sort order, every row a
// batch copies gets its label-run index recomputed with it, and byLabel
// is edited incrementally, so queries never pay a re-Finalize. Not safe
// for concurrent use; callers serialize Apply/Rollback against readers
// the same way they would serialize rebuilds.
type Versioned struct {
	g *Graph
}

// NewVersioned wraps g (finalizing it if needed) for in-place
// maintenance. The caller must not mutate g behind the wrapper's back.
func NewVersioned(g *Graph) *Versioned {
	g.Finalize()
	return &Versioned{g: g}
}

// Graph returns the live (newest-version) graph. The pointer is stable
// across Apply calls — the graph mutates in place.
func (vg *Versioned) Graph() *Graph { return vg.g }

// Version returns the live graph's current version token.
func (vg *Versioned) Version() Version { return vg.g.version }

// OldView is a read-only handle on the graph as it was immediately
// before one Apply batch. It holds only the adjacency rows that batch
// displaced (copy-on-write) and delegates everything else to the live
// graph, so it costs O(|batch| + degree of touched nodes), not O(|G|).
// It is valid until the next Apply or Rollback on the same Versioned;
// reads after that panic rather than silently serving mixed versions.
type OldView struct {
	vg      *Versioned
	validAt Version

	numNodes int
	numEdges int
	// prevOut/prevIn hold the pre-batch adjacency rows of exactly the
	// nodes whose rows the batch replaced. Absent nodes were untouched,
	// so the live rows still are the pre-batch rows.
	prevOut map[NodeID][]Edge
	prevIn  map[NodeID][]Edge
}

func (ov *OldView) check() {
	if ov.vg.g.version != ov.validAt {
		panic("graph: OldView read after a later Apply/Rollback")
	}
}

// NumNodes returns the pre-batch node count.
func (ov *OldView) NumNodes() int { ov.check(); return ov.numNodes }

// NumEdges returns the pre-batch edge count.
func (ov *OldView) NumEdges() int { ov.check(); return ov.numEdges }

// NodeLabelName returns the pre-batch label of v. Node labels are
// immutable once assigned (tombstones keep theirs), so this delegates.
func (ov *OldView) NodeLabelName(v NodeID) string { ov.check(); return ov.vg.g.NodeLabelName(v) }

// LabelName resolves an interned label id; the interner is append-only
// so pre-batch ids are stable.
func (ov *OldView) LabelName(id LabelID) string { ov.check(); return ov.vg.g.LabelName(id) }

// LookupLabel resolves a label string. A label first interned by the
// batch resolves here too, but it cannot occur on any pre-batch edge,
// so old-view reads stay consistent.
func (ov *OldView) LookupLabel(s string) LabelID { ov.check(); return ov.vg.g.LookupLabel(s) }

// Out returns the pre-batch out-adjacency of v (sorted by label, then
// endpoint). Nodes created by the batch have no pre-batch adjacency.
func (ov *OldView) Out(v NodeID) []Edge {
	ov.check()
	if int(v) >= ov.numNodes {
		return nil
	}
	if row, ok := ov.prevOut[v]; ok {
		return row
	}
	return ov.vg.g.out[v]
}

// In returns the pre-batch in-adjacency of v (Edge.To is the source).
func (ov *OldView) In(v NodeID) []Edge {
	ov.check()
	if int(v) >= ov.numNodes {
		return nil
	}
	if row, ok := ov.prevIn[v]; ok {
		return row
	}
	return ov.vg.g.in[v]
}

// HasEdge reports whether (from, to, l) existed before the batch.
func (ov *OldView) HasEdge(from, to NodeID, l LabelID) bool {
	ov.check()
	if int(from) >= ov.numNodes || int(to) >= ov.numNodes {
		return false
	}
	row := ov.Out(from)
	i := sort.Search(len(row), func(i int) bool {
		if row[i].Label != l {
			return row[i].Label > l
		}
		return row[i].To >= to
	})
	return i < len(row) && row[i] == (Edge{To: to, Label: l})
}

// Neighborhood returns the nodes within d undirected hops of v in the
// pre-batch graph (including v), ascending — Nd(v) over the old view.
func (ov *OldView) Neighborhood(v NodeID, d int) []NodeID {
	ov.check()
	return viewNeighborhood(ov, v, d)
}

// viewNeighborhood is Graph.Neighborhood generalized to any View.
func viewNeighborhood(g View, v NodeID, d int) []NodeID {
	seen := map[NodeID]bool{v: true}
	frontier := []NodeID{v}
	for hop := 0; hop < d; hop++ {
		var next []NodeID
		for _, u := range frontier {
			for _, e := range g.Out(u) {
				if !seen[e.To] {
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
			for _, e := range g.In(u) {
				if !seen[e.To] {
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	out := make([]NodeID, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InducedOf returns the subgraph induced by nodes over any View, with
// the local→global id mapping. It preserves the input node order
// exactly as (*Graph).Induced does — failover re-ships depend on that
// for local-id stability.
func InducedOf(g View, nodes []NodeID) (*Graph, []NodeID) {
	local := make(map[NodeID]NodeID, len(nodes))
	sub := New(len(nodes))
	var toGlobal []NodeID
	for _, v := range nodes {
		if _, ok := local[v]; ok {
			continue
		}
		id := sub.AddNode(g.NodeLabelName(v))
		local[v] = id
		toGlobal = append(toGlobal, v)
	}
	for _, v := range toGlobal {
		lv := local[v]
		for _, e := range g.Out(v) {
			if lu, ok := local[e.To]; ok {
				sub.AddEdge(lv, lu, g.LabelName(e.Label))
			}
		}
	}
	sub.Finalize()
	return sub, toGlobal
}

// Clone returns a deep copy of g sharing no mutable state, preserving
// finalization, interner order, and all indexes.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		nodeLabel: append([]LabelID(nil), g.nodeLabel...),
		out:       make([][]Edge, len(g.out)),
		in:        make([][]Edge, len(g.in)),
		numEdges:  g.numEdges,
		version:   g.version,
		finalized: g.finalized,
	}
	for v := range g.out {
		ng.out[v] = append([]Edge(nil), g.out[v]...)
	}
	for v := range g.in {
		ng.in[v] = append([]Edge(nil), g.in[v]...)
	}
	ng.interner.names = append([]string(nil), g.interner.names...)
	if g.interner.byName != nil {
		ng.interner.byName = make(map[string]LabelID, len(g.interner.byName))
		for s, id := range g.interner.byName {
			ng.interner.byName[s] = id
		}
	}
	if g.byLabel != nil {
		ng.byLabel = make(map[LabelID][]NodeID, len(g.byLabel))
		for l, vs := range g.byLabel {
			ng.byLabel[l] = append([]NodeID(nil), vs...)
		}
	}
	if g.finalized {
		ng.outRuns = indexRows(ng.out)
		ng.inRuns = indexRows(ng.in)
	}
	return ng
}

// insertSorted inserts e into a (label, endpoint)-sorted row, reporting
// whether it was absent (and therefore inserted).
func insertSorted(row []Edge, e Edge) ([]Edge, bool) {
	i := sort.Search(len(row), func(i int) bool {
		if row[i].Label != e.Label {
			return row[i].Label > e.Label
		}
		return row[i].To >= e.To
	})
	if i < len(row) && row[i] == e {
		return row, false
	}
	row = append(row, Edge{})
	copy(row[i+1:], row[i:])
	row[i] = e
	return row, true
}

// removeSorted removes e from a sorted row, reporting whether it was
// present (and therefore removed).
func removeSorted(row []Edge, e Edge) ([]Edge, bool) {
	i := sort.Search(len(row), func(i int) bool {
		if row[i].Label != e.Label {
			return row[i].Label > e.Label
		}
		return row[i].To >= e.To
	})
	if i >= len(row) || row[i] != e {
		return row, false
	}
	copy(row[i:], row[i+1:])
	return row[:len(row)-1], true
}

// Apply applies the batch in place and returns the pre-batch OldView
// plus the sorted touched set: endpoints of inserted or removed edges
// (named by the batch even when the op was a no-op), newly added
// nodes, isolated nodes and their former neighbors — bit-exact with
// the legacy rebuild path's touched semantics.
//
// The whole batch is validated up front against the projected node
// count, so an error leaves the graph untouched at its prior version.
// On success the version advances and any earlier OldView goes stale.
func (vg *Versioned) Apply(muts []Mutation) (*OldView, []NodeID, error) {
	g := vg.g
	n := g.NumNodes()
	for _, m := range muts {
		switch m.Op {
		case MutAddNode:
			n++
		case MutAddEdge, MutRemoveEdge:
			if m.From < 0 || int(m.From) >= n || m.To < 0 || int(m.To) >= n {
				return nil, nil, fmt.Errorf("graph: %+v references a node outside [0, %d)", m, n)
			}
		case MutRemoveNode:
			if m.From < 0 || int(m.From) >= n {
				return nil, nil, fmt.Errorf("graph: %+v references a node outside [0, %d)", m, n)
			}
		default:
			return nil, nil, fmt.Errorf("graph: unknown mutation op %d", m.Op)
		}
	}

	ov := &OldView{
		vg:       vg,
		numNodes: g.NumNodes(),
		numEdges: g.numEdges,
		prevOut:  make(map[NodeID][]Edge),
		prevIn:   make(map[NodeID][]Edge),
	}
	// Copy-on-write: the first edit of a pre-batch row parks the
	// original slice in the OldView and installs a private copy in the
	// live graph. Rows of nodes created by this batch are born owned.
	dirtyOut := make(map[NodeID]bool)
	dirtyIn := make(map[NodeID]bool)
	cowOut := func(v NodeID) {
		if dirtyOut[v] {
			return
		}
		dirtyOut[v] = true
		if int(v) < ov.numNodes {
			ov.prevOut[v] = g.out[v]
			g.out[v] = append([]Edge(nil), g.out[v]...)
		}
	}
	cowIn := func(v NodeID) {
		if dirtyIn[v] {
			return
		}
		dirtyIn[v] = true
		if int(v) < ov.numNodes {
			ov.prevIn[v] = g.in[v]
			g.in[v] = append([]Edge(nil), g.in[v]...)
		}
	}

	touched := make(map[NodeID]bool)
	for _, m := range muts {
		switch m.Op {
		case MutAddNode:
			l := g.interner.Intern(m.Label)
			id := NodeID(len(g.nodeLabel))
			g.nodeLabel = append(g.nodeLabel, l)
			g.out = append(g.out, nil)
			g.in = append(g.in, nil)
			g.outRuns = append(g.outRuns, nil)
			g.inRuns = append(g.inRuns, nil)
			// Ids ascend, so appending keeps byLabel rows sorted.
			g.byLabel[l] = append(g.byLabel[l], id)
			dirtyOut[id], dirtyIn[id] = true, true
			touched[id] = true

		case MutAddEdge:
			// If the edge already exists its label is already interned,
			// so Intern never adds a label on a no-op.
			l := g.interner.Intern(m.Label)
			cowOut(m.From)
			cowIn(m.To)
			row, inserted := insertSorted(g.out[m.From], Edge{To: m.To, Label: l})
			if inserted {
				g.out[m.From] = row
				g.in[m.To], _ = insertSorted(g.in[m.To], Edge{To: m.From, Label: l})
				g.numEdges++
			}
			touched[m.From], touched[m.To] = true, true

		case MutRemoveEdge:
			// Lookup, not Intern: removing via a never-seen label must
			// not grow the interner.
			if l := g.interner.Lookup(m.Label); l != NoLabel {
				cowOut(m.From)
				cowIn(m.To)
				row, removed := removeSorted(g.out[m.From], Edge{To: m.To, Label: l})
				if removed {
					g.out[m.From] = row
					g.in[m.To], _ = removeSorted(g.in[m.To], Edge{To: m.From, Label: l})
					g.numEdges--
				}
			}
			touched[m.From], touched[m.To] = true, true

		case MutRemoveNode:
			v := m.From
			touched[v] = true
			cowOut(v)
			cowIn(v)
			outs, ins := g.out[v], g.in[v]
			selfLoops := 0
			for _, e := range outs {
				touched[e.To] = true
				if e.To == v {
					selfLoops++
					continue
				}
				cowIn(e.To)
				g.in[e.To], _ = removeSorted(g.in[e.To], Edge{To: v, Label: e.Label})
			}
			for _, e := range ins {
				touched[e.To] = true
				if e.To == v {
					continue // its mirror died with out[v]
				}
				cowOut(e.To)
				g.out[e.To], _ = removeSorted(g.out[e.To], Edge{To: v, Label: e.Label})
			}
			g.numEdges -= len(outs) + len(ins) - selfLoops
			g.out[v], g.in[v] = nil, nil
		}
	}
	// A row and its runs are replaced together: exactly the rows the
	// batch copied (or created) are re-indexed, O(degree) each. Nothing
	// else holds the displaced runs, so their storage is reused.
	for v := range dirtyOut {
		g.outRuns[v] = appendRuns(g.outRuns[v][:0], g.out[v])
	}
	for v := range dirtyIn {
		g.inRuns[v] = appendRuns(g.inRuns[v][:0], g.in[v])
	}

	g.version++
	ov.validAt = g.version
	ts := make([]NodeID, 0, len(touched))
	for v := range touched {
		ts = append(ts, v)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ov, ts, nil
}

// Rollback undoes the batch that produced ov, restoring the exact
// pre-batch adjacency and indexes. Only the most recent batch can be
// rolled back (ov must still be the current version). The interner may
// retain labels the batch introduced — harmless, since no node or edge
// references them afterwards. Rollback consumes ov: the version
// advances and ov (like any other outstanding view) goes stale.
func (vg *Versioned) Rollback(ov *OldView) error {
	if ov == nil || ov.vg != vg {
		return fmt.Errorf("graph: rollback with a view from a different graph")
	}
	g := vg.g
	if g.version != ov.validAt {
		return fmt.Errorf("graph: rollback of a stale view (version %d, now %d)", ov.validAt, g.version)
	}
	// Un-append the batch's new nodes. Their byLabel entries are the
	// tails of their rows: every pre-batch entry is a smaller id.
	for v := ov.numNodes; v < len(g.nodeLabel); v++ {
		l := g.nodeLabel[v]
		row := g.byLabel[l]
		g.byLabel[l] = row[:len(row)-1]
	}
	g.nodeLabel = g.nodeLabel[:ov.numNodes]
	g.out = g.out[:ov.numNodes]
	g.in = g.in[:ov.numNodes]
	g.outRuns = g.outRuns[:ov.numNodes]
	g.inRuns = g.inRuns[:ov.numNodes]
	// Restore displaced rows, and their runs with them.
	for v, row := range ov.prevOut {
		g.out[v] = row
		g.outRuns[v] = appendRuns(g.outRuns[v][:0], row)
	}
	for v, row := range ov.prevIn {
		g.in[v] = row
		g.inRuns[v] = appendRuns(g.inRuns[v][:0], row)
	}
	g.numEdges = ov.numEdges
	g.version++
	return nil
}
