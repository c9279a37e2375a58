// Versioned in-place graph maintenance: apply a mutation batch as a
// delta over the live adjacency instead of rebuilding the world. A
// batch applied through Versioned.Apply edits the adjacency rows where
// they lie, writes each row edit to an undo log, and hands back an
// OldView — a pre-batch read handle that rebuilds an edited row from the
// live row and the log when somebody reads it — so the §5.2 affected-set
// computation ("deletions in the old graph, insertions in the new") works
// without two full graphs, and a caller that never looks back pays
// nothing for the view. Per-batch cost is proportional to |batch| plus
// the degree of the touched nodes, the Berkholz–Keppeler–Schweikardt
// target of cost proportional to the change rather than the database.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Version is a monotonically increasing token identifying a graph's
// state. It lives on the Graph: every successful Versioned.Apply (and
// Rollback) advances it, as does every building call; an OldView is pinned
// to the version its batch created and panics if read after a later one.
type Version uint64

// MutationOp enumerates the graph's write vocabulary — the one every
// layer from the wire to the journal speaks. The values are the journal's
// on-disk opcodes and the packed wire batch's: do not renumber.
type MutationOp uint8

const (
	// MutInvalid is the zero op; CheckBatch rejects it.
	MutInvalid MutationOp = iota
	// MutAddNode appends a node with Label; From/To are ignored. Node ids
	// are assigned densely in application order, so replaying a journal
	// reproduces the same ids.
	MutAddNode
	// MutAddEdge inserts edge (From, To, Label); a duplicate is a no-op
	// (at most one (from, to, label) edge).
	MutAddEdge
	// MutRemoveEdge deletes edge (From, To, Label); absence is a no-op.
	MutRemoveEdge
	// MutRemoveNode isolates node From (removes every incident edge)
	// but keeps its slot and label — a tombstoned row: node ids stay
	// dense and stable, queries see an unreachable, degree-0 node.
	MutRemoveNode
)

// Mutation is one graph change. Which fields are meaningful depends on
// Op: AddNode uses Label; AddEdge/RemoveEdge use From, To, Label;
// RemoveNode uses From.
type Mutation struct {
	Op       MutationOp
	From, To NodeID
	Label    string
}

// AddNode returns a mutation appending a node with the given label.
func AddNode(label string) Mutation { return Mutation{Op: MutAddNode, Label: label} }

// AddEdge returns a mutation inserting the edge from -> to with a label.
func AddEdge(from, to NodeID, label string) Mutation {
	return Mutation{Op: MutAddEdge, From: from, To: to, Label: label}
}

// RemoveEdge returns a mutation deleting the edge from -> to with a label.
func RemoveEdge(from, to NodeID, label string) Mutation {
	return Mutation{Op: MutRemoveEdge, From: from, To: to, Label: label}
}

func (m Mutation) String() string {
	switch m.Op {
	case MutAddNode:
		return fmt.Sprintf("addNode(%s)", m.Label)
	case MutAddEdge:
		return fmt.Sprintf("addEdge(%d -%s-> %d)", m.From, m.Label, m.To)
	case MutRemoveEdge:
		return fmt.Sprintf("removeEdge(%d -%s-> %d)", m.From, m.Label, m.To)
	case MutRemoveNode:
		return fmt.Sprintf("removeNode(%d)", m.From)
	}
	return fmt.Sprintf("mutation(op=%d)", m.Op)
}

// CheckBatch is the one rule a batch must pass before it is applied or
// journaled: every op is known and every node an op names exists when the
// op runs — numNodes nodes to begin with, one more after each AddNode, so
// a batch can add a node and connect it. It returns the node count after
// the batch.
func CheckBatch(muts []Mutation, numNodes int) (int, error) {
	n := numNodes
	for i, m := range muts {
		switch m.Op {
		case MutAddNode:
			n++
		case MutAddEdge, MutRemoveEdge:
			if m.From < 0 || int(m.From) >= n || m.To < 0 || int(m.To) >= n {
				return 0, fmt.Errorf("graph: mutation %d: %v references a node outside [0, %d)", i, m, n)
			}
		case MutRemoveNode:
			if m.From < 0 || int(m.From) >= n {
				return 0, fmt.Errorf("graph: mutation %d: %v references a node outside [0, %d)", i, m, n)
			}
		default:
			return 0, fmt.Errorf("graph: mutation %d: unknown op %d", i, m.Op)
		}
	}
	return n, nil
}

// View is the read surface shared by a live *Graph and an OldView:
// everything update planning, affected-set computation, and fragment
// (re-)shipping need. *Graph satisfies it directly.
type View interface {
	NumNodes() int
	NodeLabelName(v NodeID) string
	LabelName(id LabelID) string
	LookupLabel(s string) LabelID
	Out(v NodeID) []Edge
	In(v NodeID) []Edge
}

var (
	_ View = (*Graph)(nil)
	_ View = (*OldView)(nil)
)

// Versioned wraps a finalized Graph and maintains it in place under
// mutation batches. The wrapped graph stays finalized at all times:
// adjacency rows keep their (label, endpoint) sort order, each edit of a
// row shifts that row's label runs by one edge, O(labels in the row), and
// byLabel is edited incrementally, so queries never pay a re-Finalize.
// Not safe for concurrent use; callers serialize Apply/Rollback against
// readers the same way they would serialize rebuilds. A row slice read from the
// graph is good until the next Apply or Rollback, which edit it in place or
// move it.
type Versioned struct {
	g *Graph

	// moved has, per node, the markOut/markIn bit of each row that left
	// the arena (the build array, or the last re-pack's) since; deadOut and
	// deadIn count the capacity those rows left there, which any row still
	// in the arena keeps reachable. Past a quarter of the live edges, Apply
	// re-packs the direction.
	moved           []uint8
	deadOut, deadIn int

	// State of the latest batch, reused by the next. mark has one byte per
	// node — out-row edited, in-row edited, touched — and marked lists the
	// nodes carrying any, so a batch resets what its predecessor set and
	// nothing else. log holds the batch's row edits in application order;
	// dropped the rows a removed node lost whole (kept, not copied).
	mark    []uint8
	marked  []NodeID
	log     []rowOp
	dropped [][]Edge
	// edits is the storage OldView.Edits returns the latest batch's net
	// edits in.
	edits []EdgeEdit

	// visits counts log entries written or read, for the tests that pin
	// what a hub's removal costs.
	visits int
}

const (
	markOut     uint8 = 1 << iota // out-row edited by the latest batch
	markIn                        // in-row edited
	markTouched                   // in the batch's touched set
)

// rowOp is one edit of one adjacency row, as the undo log records it.
type rowOp struct {
	v    NodeID
	kind uint8 // opInsert, opRemove or opDrop
	in   bool  // the in-row of v, not the out-row
	e    Edge  // the edge inserted or removed; for opDrop, e.To indexes dropped
	// vacated says that an opDrop took the row out of the arena.
	vacated bool
}

const (
	opInsert uint8 = iota
	opRemove
	opDrop
)

// rows returns the adjacency table of a direction, its label runs and its
// mark bit.
func (vg *Versioned) rows(in bool) ([][]Edge, [][]labelRun, uint8) {
	if in {
		return vg.g.in, vg.g.inRuns, markIn
	}
	return vg.g.out, vg.g.outRuns, markOut
}

// dead returns the dead capacity count of a direction.
func (vg *Versioned) dead(in bool) *int {
	if in {
		return &vg.deadIn
	}
	return &vg.deadOut
}

// vacate notes that a row of v of the given capacity is leaving the arena,
// and reports whether it was there: a row that left before is on the heap
// of its own, garbage once it moves.
func (vg *Versioned) vacate(in bool, v NodeID, capacity int) bool {
	_, _, bit := vg.rows(in)
	if vg.moved[v]&bit != 0 {
		return false
	}
	vg.moved[v] |= bit
	*vg.dead(in) += capacity
	return true
}

// repackShare is the share of the live edges a direction's dead capacity
// may reach before the direction is re-packed: at a quarter the held rows
// stay within 1.25 times the live ones, plus the rows' own slack.
const repackShare = 4

// repack copies every row of a direction, each with the capacity it has
// grown to, into one fresh array, and the rows' label runs into another:
// the old arenas, and every row that moved out of them, become garbage.
func (vg *Versioned) repack(in bool) {
	rows, runs, bit := vg.rows(in)
	edges, labels := 0, 0
	for v, row := range rows {
		edges += cap(row)
		labels += len(runs[v])
	}
	arena, runArena := make([]Edge, edges), make([]labelRun, 0, labels)
	off := 0
	for v, row := range rows {
		lo := len(runArena)
		runArena = append(runArena, runs[v]...)
		runs[v] = runArena[lo:len(runArena):len(runArena)]
		if cap(row) == 0 {
			rows[v] = nil
			continue
		}
		copy(arena[off:], row)
		rows[v] = arena[off : off+len(row) : off+cap(row)]
		off += cap(row)
	}
	for v := range vg.moved {
		vg.moved[v] &^= bit
	}
	*vg.dead(in) = 0
}

// touch puts v into the batch's touched set, with bits for an edited row.
func (vg *Versioned) touch(v NodeID, bits uint8) {
	if vg.mark[v] == 0 {
		vg.marked = append(vg.marked, v)
	}
	vg.mark[v] |= bits | markTouched
}

// record logs one edit of a row of v.
func (vg *Versioned) record(op rowOp, bit uint8) {
	vg.touch(op.v, bit)
	vg.log = append(vg.log, op)
	vg.visits++
}

// edit inserts e into (opInsert) or removes it from (opRemove) a row of v,
// where the row lies, shifts the row's runs with it, and logs the edit if
// the row changed.
func (vg *Versioned) edit(kind uint8, in bool, v NodeID, e Edge) bool {
	rows, runs, bit := vg.rows(in)
	row := rows[v]
	var changed bool
	if kind == opInsert {
		rows[v], changed = insertSorted(row, e)
	} else {
		rows[v], changed = removeSorted(row, e)
	}
	if cap(rows[v]) != cap(row) {
		vg.vacate(in, v, cap(row))
	}
	if changed {
		runs[v] = shiftRuns(runs[v], e.Label, kind == opInsert)
		vg.record(rowOp{v: v, kind: kind, in: in, e: e}, bit)
	}
	return changed
}

// drop empties a row of v and its runs; the log keeps the row's slice.
func (vg *Versioned) drop(in bool, v NodeID) {
	rows, runs, bit := vg.rows(in)
	if len(rows[v]) == 0 {
		return
	}
	vacated := vg.vacate(in, v, cap(rows[v]))
	vg.record(rowOp{v: v, kind: opDrop, in: in, e: Edge{To: NodeID(len(vg.dropped))}, vacated: vacated}, bit)
	vg.dropped = append(vg.dropped, rows[v])
	rows[v] = nil
	runs[v] = runs[v][:0]
}

// shiftRuns moves the label runs of a row by the one edge of label l just
// inserted into it (grow) or removed from it: l's run grows or shrinks,
// every later run shifts, a label new to the row gets a run and a run left
// empty goes. O(labels in the row), not O(degree).
func shiftRuns(runs []labelRun, l LabelID, grow bool) []labelRun {
	i := 0
	for i < len(runs) && runs[i].label < l {
		i++
	}
	start := int32(0)
	if i > 0 {
		start = runs[i-1].end
	}
	if i == len(runs) || runs[i].label != l {
		runs = slices.Insert(runs, i, labelRun{l, start})
	}
	d := int32(-1)
	if grow {
		d = 1
	}
	for j := i; j < len(runs); j++ {
		runs[j].end += d
	}
	if runs[i].end == start {
		runs = slices.Delete(runs, i, i+1)
	}
	return runs
}

// undo reverses one logged edit on row. After an opDrop the result is the
// log's own slice.
func (vg *Versioned) undo(op rowOp, row []Edge) []Edge {
	vg.visits++
	switch op.kind {
	case opInsert:
		row, _ = removeSorted(row, op.e)
	case opRemove:
		row, _ = insertSorted(row, op.e)
	default:
		row = vg.dropped[op.e.To]
	}
	return row
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

// OldView is a read-only handle on the graph as it was immediately
// before one Apply batch. A row the batch did not edit is the live row;
// an edited one is rebuilt from the live row and the batch's undo log the
// first time it is read, and kept. It costs nothing until then, and
// O(degree + the row's edits) per row read after, never O(|G|). It is
// valid until the next Apply or Rollback on the same Versioned; reads
// after that panic rather than silently serving mixed versions. Readers
// may share it between goroutines.
type OldView struct {
	vg      *Versioned
	validAt Version

	numNodes int
	numEdges int

	// mu guards old, the batch's log indexed by row on the first read of
	// an edited row: one entry per log entry, sorted by (node, direction,
	// log position), so a row's edits are one stretch in application
	// order, found by binary search. The stretch's first entry holds the
	// row once it is rebuilt.
	mu  sync.Mutex
	old []oldRow
	// edits is Edits' result once computed, in the Versioned's storage;
	// hasEdits says it is.
	edits    []EdgeEdit
	hasEdits bool
}

type oldRow struct {
	key   uint64 // node<<33 | direction<<32 | log position
	row   []Edge
	built bool
}

func rowKey(v NodeID, in bool) uint64 {
	k := uint64(v) << 33
	if in {
		k |= 1 << 32
	}
	return k
}

func (ov *OldView) check() {
	if ov.vg.g.version != ov.validAt {
		panic("graph: OldView read after a later Apply/Rollback")
	}
}

// row returns a pre-batch row of v.
func (ov *OldView) row(in bool, v NodeID) []Edge {
	ov.check()
	if int(v) >= ov.numNodes {
		return nil
	}
	vg := ov.vg
	rows, _, bit := vg.rows(in)
	if vg.mark[v]&bit == 0 {
		return rows[v]
	}
	ov.mu.Lock()
	defer ov.mu.Unlock()
	if ov.old == nil {
		ov.old = make([]oldRow, len(vg.log))
		for i, op := range vg.log {
			ov.old[i].key = rowKey(op.v, op.in) | uint64(i)
		}
		vg.visits += len(vg.log)
		slices.SortFunc(ov.old, func(a, b oldRow) int { return cmp.Compare(a.key, b.key) })
	}
	key := rowKey(v, in)
	lo, _ := slices.BinarySearchFunc(ov.old, key, func(r oldRow, k uint64) int { return cmp.Compare(r.key, k) })
	if first := &ov.old[lo]; first.built {
		return first.row
	}
	hi := lo
	for hi < len(ov.old) && ov.old[hi].key>>32 == key>>32 {
		hi++
	}
	// Undo the row's edits newest first, on a copy with room for every edge
	// they removed: the live row stays as it is.
	row := append(make([]Edge, 0, len(rows[v])+hi-lo), rows[v]...)
	for i := hi - 1; i >= lo; i-- {
		op := vg.log[uint32(ov.old[i].key)]
		if row = vg.undo(op, row); op.kind == opDrop && i > lo {
			row = slices.Clone(row) // the log's own slice, and Rollback wants it back unchanged
		}
	}
	ov.old[lo].row, ov.old[lo].built = row, true
	return row
}

// NumNodes returns the pre-batch node count.
func (ov *OldView) NumNodes() int { ov.check(); return ov.numNodes }

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
func (ov *OldView) Out(v NodeID) []Edge { return ov.row(false, v) }

// In returns the pre-batch in-adjacency of v (Edge.To is the source).
func (ov *OldView) In(v NodeID) []Edge { return ov.row(true, v) }

// EdgeEdit is one edge a batch inserted (Added) or removed.
type EdgeEdit struct {
	From, To NodeID
	Label    LabelID
	Added    bool
}

// Edits returns the batch's net edge edits, ascending by (From, Label, To):
// each edge present on one side of the batch and not on the other, once. It
// reads the undo log alone, O(|log| log |log|), on the first call; later
// calls return the same slice. An edge's logged edits alternate, since an
// insert only logs when the edge is absent and a removal when it is
// present, so its first edit says whether it existed before the batch and
// its last whether it exists now: an edge inserted and removed again within
// the batch is no edit.
//
// The slice lives in storage the Versioned reuses from batch to batch, so
// it is valid as long as the view is, until the next Apply or Rollback,
// and is read-only: a caller that keeps edits longer copies them.
func (ov *OldView) Edits() []EdgeEdit {
	ov.check()
	ov.mu.Lock()
	defer ov.mu.Unlock()
	if ov.hasEdits {
		return ov.edits
	}
	vg := ov.vg
	all := vg.edits[:0] // every logged out-row edit, in log order
	for _, op := range vg.log {
		switch {
		case op.in:
		case op.kind == opDrop:
			for _, e := range vg.dropped[op.e.To] {
				all = append(all, EdgeEdit{From: op.v, To: e.To, Label: e.Label})
			}
		default:
			all = append(all, EdgeEdit{From: op.v, To: op.e.To, Label: op.e.Label, Added: op.kind == opInsert})
		}
	}
	edge := func(a, b EdgeEdit) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.Label, b.Label), cmp.Compare(a.To, b.To))
	}
	slices.SortStableFunc(all, edge)
	net := all[:0]
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && edge(all[i], all[j]) == 0 {
			j++
		}
		if all[i].Added == all[j-1].Added {
			net = append(net, all[j-1])
		}
		i = j
	}
	vg.edits = all
	ov.edits, ov.hasEdits = net, true
	return net
}

// InducedOf returns the subgraph induced by nodes over any View, with
// the local→global id mapping. It preserves the input node order
// exactly as (*Graph).Induced does — failover re-ships depend on that
// for local-id stability — and interns labels in first-use order, node
// labels first, so the same nodes give the same bytes.
func InducedOf(g View, nodes []NodeID) (*Graph, []NodeID) {
	// local[v] is v's local id plus one, 0 while v is not taken.
	local := make([]NodeID, g.NumNodes())
	sub := &Graph{nodeLabel: make([]LabelID, 0, len(nodes))}
	toGlobal := make([]NodeID, 0, len(nodes))
	for _, v := range nodes {
		if local[v] != 0 {
			continue
		}
		toGlobal = append(toGlobal, v)
		local[v] = NodeID(len(toGlobal))
		sub.nodeLabel = append(sub.nodeLabel, sub.interner.Intern(g.NodeLabelName(v)))
	}
	// labels[l] is global edge label l's local id plus one, 0 until an
	// edge kept carries it.
	var labels []LabelID
	kept := 0
	for _, v := range toGlobal {
		for _, e := range g.Out(v) {
			if local[e.To] != 0 {
				kept++
			}
		}
	}
	// Local ids ascend with toGlobal, so the kept edges lie out row after
	// row as they are found.
	backing := make([]Edge, 0, kept)
	end := make([]int, len(toGlobal))
	for lv, v := range toGlobal {
		for _, e := range g.Out(v) {
			lu := local[e.To]
			if lu == 0 {
				continue
			}
			if int(e.Label) >= len(labels) {
				labels = append(labels, make([]LabelID, int(e.Label)+1-len(labels))...)
			}
			if labels[e.Label] == 0 {
				labels[e.Label] = sub.interner.Intern(g.LabelName(e.Label)) + 1
			}
			backing = append(backing, Edge{lu - 1, labels[e.Label] - 1})
		}
		end[lv] = len(backing)
	}
	sub.build(backing, end)
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

// findEdge returns where e is, or would go, in a (label, endpoint)-sorted
// row.
func findEdge(row []Edge, e Edge) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r := row[mid]; r.Label < e.Label || r.Label == e.Label && r.To < e.To {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertSorted inserts e into a (label, endpoint)-sorted row, in place
// when the row has room, reporting whether it was absent (and therefore
// inserted). A full row moves to one an eighth longer, not to append's
// double: a maintained row is edited for as long as the graph lives, and
// doubling left the benchmark's graphs up to twice the size of their edges.
func insertSorted(row []Edge, e Edge) ([]Edge, bool) {
	i := findEdge(row, e)
	if i < len(row) && row[i] == e {
		return row, false
	}
	if len(row) == cap(row) {
		row = append(make([]Edge, 0, len(row)+len(row)/8+2), row...)
	}
	row = row[:len(row)+1]
	copy(row[i+1:], row[i:])
	row[i] = e
	return row, true
}

// removeSorted removes e from a sorted row, reporting whether it was
// present (and therefore removed).
func removeSorted(row []Edge, e Edge) ([]Edge, bool) {
	i := findEdge(row, e)
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
// The whole batch is validated up front (CheckBatch), so an error leaves
// the graph untouched at its prior version.
// On success the version advances and any earlier OldView goes stale.
func (vg *Versioned) Apply(muts []Mutation) (*OldView, []NodeID, error) {
	g := vg.g
	n, err := CheckBatch(muts, g.NumNodes())
	if err != nil {
		return nil, nil, err
	}

	// The batch before this one is history: its view goes stale below,
	// so its marks, log and dropped rows make room for this batch's.
	for _, v := range vg.marked {
		vg.mark[v] = 0
	}
	vg.marked = vg.marked[:0]
	vg.log = vg.log[:0]
	clear(vg.dropped)
	vg.dropped = vg.dropped[:0]
	if n > len(vg.mark) {
		vg.mark = append(vg.mark, make([]uint8, n-len(vg.mark))...)
		vg.moved = append(vg.moved, make([]uint8, n-len(vg.moved))...)
	}
	// The view that could read the rows where they lie is stale too, so
	// this is where a direction whose arena holds too much dead capacity
	// moves to a fresh one.
	for _, in := range []bool{false, true} {
		if *vg.dead(in) > g.numEdges/repackShare {
			vg.repack(in)
		}
	}
	ov := &OldView{vg: vg, numNodes: g.NumNodes(), numEdges: g.numEdges}

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
			vg.touch(id, 0)

		case MutAddEdge:
			// If the edge already exists its label is already interned,
			// so Intern never adds a label on a no-op.
			l := g.interner.Intern(m.Label)
			if vg.edit(opInsert, false, m.From, Edge{To: m.To, Label: l}) {
				vg.edit(opInsert, true, m.To, Edge{To: m.From, Label: l})
				g.numEdges++
			}
			vg.touch(m.From, 0)
			vg.touch(m.To, 0)

		case MutRemoveEdge:
			// Lookup, not Intern: removing via a never-seen label must
			// not grow the interner.
			if l := g.interner.Lookup(m.Label); l != NoLabel && vg.edit(opRemove, false, m.From, Edge{To: m.To, Label: l}) {
				vg.edit(opRemove, true, m.To, Edge{To: m.From, Label: l})
				g.numEdges--
			}
			vg.touch(m.From, 0)
			vg.touch(m.To, 0)

		case MutRemoveNode:
			v := m.From
			vg.touch(v, 0)
			outs, ins := g.out[v], g.in[v]
			selfLoops := 0
			for _, e := range outs {
				vg.touch(e.To, 0)
				if e.To == v {
					selfLoops++
					continue
				}
				vg.edit(opRemove, true, e.To, Edge{To: v, Label: e.Label})
			}
			for _, e := range ins {
				vg.touch(e.To, 0)
				if e.To == v {
					continue // its mirror died with out[v]
				}
				vg.edit(opRemove, false, e.To, Edge{To: v, Label: e.Label})
			}
			g.numEdges -= len(outs) + len(ins) - selfLoops
			vg.drop(false, v)
			vg.drop(true, v)
		}
	}

	g.version++
	ov.validAt = g.version
	ts := slices.Clone(vg.marked)
	slices.Sort(ts)
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
	// One pass over the log, newest edit first, on the live rows and their
	// runs: an undone edit shifts the runs back, a restored row gets them
	// afresh.
	for i := len(vg.log) - 1; i >= 0; i-- {
		op := vg.log[i]
		rows, runs, bit := vg.rows(op.in)
		rows[op.v] = vg.undo(op, rows[op.v])
		if op.kind == opDrop {
			runs[op.v] = appendRuns(runs[op.v][:0], rows[op.v])
			if op.vacated { // back in the arena
				vg.moved[op.v] &^= bit
				*vg.dead(op.in) -= cap(rows[op.v])
			}
		} else {
			runs[op.v] = shiftRuns(runs[op.v], op.e.Label, op.kind == opRemove)
		}
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
	g.numEdges = ov.numEdges
	g.version++
	return nil
}
