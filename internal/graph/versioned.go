// Versioned in-place graph maintenance: apply a mutation batch as a
// delta over the live adjacency instead of rebuilding the world. A
// batch applied through Versioned.Apply edits the adjacency rows where
// they lie, writes each row edit to an undo log, and hands back an
// OldView — a pre-batch read handle that rebuilds an edited row from the
// live row and the log when somebody reads it — so the §5.2 affected-set
// computation ("deletions in the old graph, insertions in the new") works
// without two full graphs, and a caller that never looks back pays
// nothing for the view. Per-batch cost is proportional to |batch| plus
// the degree of the nodes it names, the Berkholz–Keppeler–Schweikardt
// target of cost proportional to the change rather than the database.
package graph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
)

// Version is a monotonically increasing token identifying a graph's
// state. It lives on the Graph: every successful Versioned.Apply (and
// Rollback) advances it, as does every building call; an OldView is pinned
// to the version its batch created and panics if read after a later one.
type Version uint64

// editLog records the net edge edits of each of the graph's latest
// versions, as Versioned.Apply and Rollback make them, for state derived
// from an older version (a match.Bound) to catch up from. Entry i is
// version from+1+i's; a bump it did not record (a building call) ends it.
// It keeps at most |V|/editLogShare edits and as many entries, oldest out
// first — a reader further behind would re-check every logged edit's
// endpoints under every pattern node, nearing the O(|Q|·|G|) build a
// catch-up saves — in reused storage of twice that.
type editLog struct {
	from  Version
	edits []EdgeEdit // the entries' edits back to back; edits[:start] are dropped
	start int
	ends  []int32 // where each entry's edits end; ends[:head] are dropped
	head  int
}

const editLogShare = 8

// reaches reports whether the entries run up to version v.
func (l *editLog) reaches(v Version) bool { return l.from+Version(len(l.ends)-l.head) == v }

// logVersion advances g's version and logs edits as what it changed.
func (g *Graph) logVersion(edits []EdgeEdit) {
	l := &g.edits
	if !l.reaches(g.version) {
		l.from, l.edits, l.start, l.ends, l.head = g.version, l.edits[:0], 0, l.ends[:0], 0
	}
	g.version++
	limit := g.NumNodes() / editLogShare
	for l.head < len(l.ends) && (len(l.edits)-l.start+len(edits) > limit || len(l.ends)-l.head >= limit) {
		l.start = int(l.ends[l.head])
		l.head++
		l.from++
	}
	if len(edits) > limit || limit == 0 {
		l.from++ // the log is empty and starts after this version
		return
	}
	if len(l.edits)+len(edits) > cap(l.edits) || len(l.ends) == cap(l.ends) {
		// Move the live entries to the front, a limit's appends apart.
		kept, ends := l.edits[:0], l.ends[:0]
		if cap(kept) < 2*limit {
			kept, ends = make([]EdgeEdit, 0, 2*limit), make([]int32, 0, 2*limit)
		}
		kept = append(kept, l.edits[l.start:]...)
		for _, end := range l.ends[l.head:] {
			ends = append(ends, end-int32(l.start))
		}
		l.edits, l.start, l.ends, l.head = kept, 0, ends, 0
	}
	l.edits = append(l.edits, edits...)
	l.ends = append(l.ends, int32(len(l.edits)))
}

// EditsSince returns the net edge edits of the versions after v, oldest
// first: each batch's OldView.Edits, and each rollback's the batch's with
// Added flipped, back to back. Folded in order over version v's edge set
// they give the current one. An edit may name a node a later rollback took
// away, at or past NumNodes. It reports false when the log does not reach
// back to v. The slice is the log's storage, good until the next Apply or
// Rollback.
func (g *Graph) EditsSince(v Version) ([]EdgeEdit, bool) {
	l := &g.edits
	switch {
	case v == g.version:
		return nil, true
	case v < l.from || !l.reaches(g.version):
		return nil, false
	}
	i := l.start
	if v > l.from {
		i = int(l.ends[l.head+int(v-l.from)-1])
	}
	return l.edits[i:len(l.edits):len(l.edits)], true
}

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
// mutation batches. The wrapped graph stays finalized at all times: an
// edit shifts a row and its label runs by one edge within the row's region,
// and byLabel is edited incrementally, so queries never pay a re-Finalize.
// A full region moves to its arena's tail and leaves dead slots, which the
// next Apply re-packs past a quarter of the live edges. Not safe for
// concurrent use; callers serialize Apply/Rollback against readers. A row
// slice read from the graph is good until the next Apply or Rollback,
// which edit it in place or move it.
type Versioned struct {
	g *Graph

	// State of the latest batch, reused by the next: at is the version it
	// made, while its view may read this state. mark has one byte per node
	// — out-row edited, in-row edited — and marked lists the nodes carrying
	// either, so a batch resets what its predecessor set and nothing else.
	// log holds the batch's row edits in application order.
	at     Version
	mark   []uint8
	marked []NodeID
	log    []rowOp
	// edits is the storage of the latest batch's net edits (OldView.Edits).
	edits []EdgeEdit

	// visits counts log entries written or read, for the tests that pin
	// what a hub's removal costs.
	visits int
}

// markOf is the mark bit of a row edited by the latest batch: 1 for an
// out-row, 2 for an in-row.
func markOf(in bool) uint8 {
	if in {
		return 2
	}
	return 1
}

// rowOp is one edit of one adjacency row, as the undo log records it.
type rowOp struct {
	v    NodeID
	kind uint8 // opInsert, opRemove, opDrop or opMove
	in   bool  // the in-row of v, not the out-row
	e    Edge  // the edge inserted or removed; else e.To is the region left
}

const (
	opInsert uint8 = iota
	opRemove
	opDrop
	opMove
)

// adj returns the rows of a direction.
func (g *Graph) adj(in bool) *adjacency {
	if in {
		return &g.in
	}
	return &g.out
}

// repackShare is the share of the live edges a direction's dead slots may
// reach before the direction is re-packed: at a quarter the arena stays
// within 1.25 times the live regions, plus a batch's moves.
const repackShare = 4

// arenaSpare is the share of its slots an arena gains when it is laid out,
// grows or is re-packed: not append's double, as every graph copy holds
// the spare, and a 32nd copies an arena at most 32 times per slot
// appended. Laid out with it, a fresh graph's first batches move regions
// without copying the arena.
const arenaSpare = 32

// repack copies every region that holds edges, with the capacity it has
// grown to, into a fresh arena; a row without edges goes to the empty one.
func (a *adjacency) repack() {
	slots := header
	for _, o := range a.off {
		if a.arena[o].To > 0 {
			slots += header + int(a.arena[o].Label)
		}
	}
	arena := make([]Edge, header, slots+slots/arenaSpare)
	for v, o := range a.off {
		a.off[v] = 0
		if a.arena[o].To > 0 {
			a.off[v] = int32(len(arena))
			arena = append(arena, a.arena[o:int(o)+header+int(a.arena[o].Label)]...)
		}
	}
	a.arena, a.dead = arena, 0
}

// shift inserts e at place i of the row of the region at o (grow), or
// removes the edge there, and moves the label runs with it: every run from
// e's on moves by one, a label new to the row gets a run and a run left
// empty goes. An insert needs room for an edge and a run.
func (a *adjacency) shift(o, i int, e Edge, grow bool) {
	body, r := a.region(o)
	j, start := 0, NodeID(0)
	for j < r && body[j].Label < e.Label {
		start = body[j].To
		j++
	}
	d := NodeID(-1)
	if grow {
		if j == r || body[j].Label != e.Label {
			body, r = slices.Insert(body, j, Edge{To: start, Label: e.Label}), r+1
		}
		body, d = slices.Insert(body, r+i, e), 1
	} else {
		body = slices.Delete(body, r+i, r+i+1)
	}
	for k := j; k < r; k++ {
		body[k].To += d
	}
	if body[j].To == start {
		body, r = slices.Delete(body, j, j+1), r-1
	}
	a.arena[o].To = NodeID(r)
}

// record logs one edit of a row of v.
func (vg *Versioned) record(op rowOp) {
	if vg.mark[op.v] == 0 {
		vg.marked = append(vg.marked, op.v)
	}
	vg.mark[op.v] |= markOf(op.in)
	vg.log = append(vg.log, op)
	vg.visits++
}

// edit inserts e into (opInsert) or removes it from (opRemove) a row of v,
// where the row lies, and logs the edit if the row changed, which it
// reports. An insert into a full region first moves it; it fails, changing
// nothing, when the arena cannot grow within the offset range.
func (vg *Versioned) edit(kind uint8, in bool, v NodeID, e Edge) (bool, error) {
	a, grow := vg.g.adj(in), kind == opInsert
	row := a.row(v)
	i := findEdge(row, e)
	if (i < len(row) && row[i] == e) == grow {
		return false, nil
	}
	if o := a.off[v]; grow && int(a.arena[o].To)+len(row)+2 > int(a.arena[o].Label) {
		if err := vg.move(a, in, v); err != nil {
			return false, err
		}
	}
	a.shift(int(a.off[v]), i, e, grow)
	vg.record(rowOp{v: v, kind: kind, in: in, e: e})
	return true, nil
}

// move copies a row's region to the arena's tail with an eighth more room
// and two slots, for an edge and its run. A full region moves to one an
// eighth larger, not to append's double: a maintained row is edited for as
// long as the graph lives, and doubling left the benchmark's graphs up to
// twice the size of their edges.
func (vg *Versioned) move(a *adjacency, in bool, v NodeID) error {
	body, r := a.region(int(a.off[v]))
	c, t := len(body)+len(body)/8+2, len(a.arena)
	if err := fitsOffsets(t + header + c); err != nil {
		return err
	}
	if t+header+c > cap(a.arena) {
		a.arena = append(make([]Edge, 0, t+t/arenaSpare+header+c), a.arena...)
	}
	a.arena = a.arena[:t+header+c]
	a.arena[t] = Edge{To: NodeID(r), Label: LabelID(c)}
	copy(a.arena[t+header:], body)
	vg.leave(opMove, in, v, t)
	return nil
}

// leave points a row of v at the region at t and logs the region it
// leaves, which stays as it was, for the batch's old view and Rollback,
// and counts as dead. An opDrop leaves for the empty region.
func (vg *Versioned) leave(kind uint8, in bool, v NodeID, t int) {
	a := vg.g.adj(in)
	o := int(a.off[v])
	if o != 0 {
		a.dead += header + int(a.arena[o].Label)
	}
	a.off[v] = int32(t)
	vg.record(rowOp{v: v, kind: kind, in: in, e: Edge{To: NodeID(o)}})
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

	numNodes, numEdges int
	tails, dead        [2]int // the arenas' pre-batch lengths and dead slots, out then in

	// mu guards old, the batch's log indexed by row on the first read of
	// an edited row: one entry per log entry, sorted by (node, direction,
	// log position), so a row's edits are one stretch in application
	// order, found by binary search. The stretch's first entry holds the
	// row once it is rebuilt.
	mu  sync.Mutex
	old []oldRow
	// edits is the batch's net edits, in the Versioned's storage.
	edits []EdgeEdit
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

// stale reports whether ov is no longer the view of the latest batch.
func (ov *OldView) stale() bool { return ov.vg.g.version != ov.validAt || ov.vg.at != ov.validAt }

func (ov *OldView) check() {
	if ov.stale() {
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
	a := vg.g.adj(in)
	if vg.mark[v]&markOf(in) == 0 {
		return a.row(v)
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
	row := append(make([]Edge, 0, len(a.row(v))+hi-lo), a.row(v)...)
	for i := hi - 1; i >= lo; i-- {
		op := vg.log[uint32(ov.old[i].key)]
		vg.visits++
		switch j := findEdge(row, op.e); op.kind {
		case opInsert:
			row = slices.Delete(row, j, j+1)
		case opRemove:
			row = slices.Insert(row, j, op.e)
		case opDrop:
			// The dropped region's own row, which Rollback wants back unchanged.
			if row = a.rowAt(int(op.e.To)); i > lo {
				row = slices.Clone(row)
			}
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
// each edge present on one side of the batch and not on the other, once.
// The slice lives in storage the Versioned reuses from batch to batch, so
// it is valid as long as the view is, until the next Apply or Rollback,
// and is read-only: a caller that keeps edits longer copies them.
func (ov *OldView) Edits() []EdgeEdit { ov.check(); return ov.edits }

// netEdits reduces the batch's undo log to its net edge edits, O(|log| log
// |log|), in the Versioned's storage. An edge's logged edits alternate,
// since an insert only logs when the edge is absent and a removal when it
// is present, so its first edit says whether it existed before the batch
// and its last whether it exists now: an edge inserted and removed again
// within the batch is no edit.
func (vg *Versioned) netEdits() []EdgeEdit {
	all := vg.edits[:0] // every logged out-row edit, in log order
	for _, op := range vg.log {
		switch {
		case op.in || op.kind == opMove:
		case op.kind == opDrop:
			for _, e := range vg.g.out.rowAt(int(op.e.To)) {
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
	if err := sub.build(backing, end); err != nil {
		panic(err) // a subgraph's regions take no more slots than its graph's
	}
	return sub, toGlobal
}

// Clone returns a finalized deep copy of g sharing no mutable state: the
// same nodes, edges, interner order and version, its rows laid out afresh.
func (g *Graph) Clone() *Graph {
	ng := &Graph{nodeLabel: slices.Clone(g.nodeLabel), version: g.version}
	ng.interner.names = slices.Clone(g.interner.names)
	ng.interner.byName = maps.Clone(g.interner.byName)
	if err := ng.build(g.layOut(g.staged)); err != nil {
		panic(err)
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

// Apply applies the batch in place and returns the pre-batch OldView,
// which holds the batch's net edits (OldView.Edits); the graph logs them
// as the new version's (EditsSince).
//
// The whole batch is validated up front (CheckBatch), so an invalid batch
// leaves the graph untouched at its prior version. A batch whose regions
// would pass the int32 offset range is undone where it stops, so it too
// leaves the graph as it was and at its version, but ends the latest
// batch's view. On success the version advances and any earlier OldView
// goes stale.
func (vg *Versioned) Apply(muts []Mutation) (*OldView, error) {
	g := vg.g
	n, err := CheckBatch(muts, g.NumNodes())
	if err != nil {
		return nil, err
	}

	// The batch before this one is history: its view goes stale below,
	// so its marks and log make room for this batch's.
	for _, v := range vg.marked {
		vg.mark[v] = 0
	}
	vg.at, vg.marked, vg.log = 0, vg.marked[:0], vg.log[:0]
	if n > len(vg.mark) {
		vg.mark = append(vg.mark, make([]uint8, n-len(vg.mark))...)
	}
	ov := &OldView{vg: vg, numNodes: g.NumNodes(), numEdges: g.numEdges}
	// No view reads the regions where they lie any more, so this is where
	// a direction whose arena holds too many dead slots moves to a fresh
	// one.
	for d, a := range []*adjacency{&g.out, &g.in} {
		if a.dead > g.numEdges/repackShare {
			a.repack()
		}
		ov.tails[d], ov.dead[d] = len(a.arena), a.dead
	}

	for _, m := range muts {
		switch m.Op {
		case MutAddNode:
			l := g.interner.Intern(m.Label)
			id := NodeID(len(g.nodeLabel))
			g.nodeLabel = append(g.nodeLabel, l)
			g.out.addRow()
			g.in.addRow()
			// Ids ascend, so appending keeps byLabel rows sorted.
			g.byLabel[l] = append(g.byLabel[l], id)

		case MutAddEdge:
			// If the edge already exists its label is already interned,
			// so Intern never adds a label on a no-op.
			l := g.interner.Intern(m.Label)
			added, err := vg.edit(opInsert, false, m.From, Edge{To: m.To, Label: l})
			if added {
				_, err = vg.edit(opInsert, true, m.To, Edge{To: m.From, Label: l})
				g.numEdges++
			}
			if err != nil {
				vg.restore(ov)
				return nil, err
			}

		case MutRemoveEdge:
			// Lookup, not Intern: removing via a never-seen label must
			// not grow the interner. A removal never moves a region.
			if l := g.interner.Lookup(m.Label); l != NoLabel {
				if removed, _ := vg.edit(opRemove, false, m.From, Edge{To: m.To, Label: l}); removed {
					vg.edit(opRemove, true, m.To, Edge{To: m.From, Label: l})
					g.numEdges--
				}
			}

		case MutRemoveNode:
			v := m.From
			outs, ins := g.Out(v), g.In(v)
			selfLoops := 0
			for _, e := range outs {
				if e.To == v {
					selfLoops++
					continue
				}
				vg.edit(opRemove, true, e.To, Edge{To: v, Label: e.Label})
			}
			for _, e := range ins {
				if e.To == v {
					continue // its mirror died with out[v]
				}
				vg.edit(opRemove, false, e.To, Edge{To: v, Label: e.Label})
			}
			g.numEdges -= len(outs) + len(ins) - selfLoops
			for _, in := range []bool{false, true} {
				if g.adj(in).off[v] != 0 {
					vg.leave(opDrop, in, v, 0)
				}
			}
		}
	}

	ov.edits = vg.netEdits()
	g.logVersion(ov.edits)
	ov.validAt, vg.at = g.version, g.version
	return ov, nil
}

// restore undoes the latest batch, which ov began: its row edits newest
// first, on the live regions, each row that left a region back to it, and
// its new nodes taken away. The rows, the arenas' lengths and their dead
// slots are the pre-batch ones again.
func (vg *Versioned) restore(ov *OldView) {
	g := vg.g
	for i := len(vg.log) - 1; i >= 0; i-- {
		op := vg.log[i]
		a := g.adj(op.in)
		vg.visits++
		switch op.kind {
		case opInsert, opRemove:
			a.shift(int(a.off[op.v]), findEdge(a.row(op.v), op.e), op.e, op.kind == opRemove)
		default:
			a.off[op.v] = int32(op.e.To)
		}
	}
	// Un-append the batch's new nodes. Their byLabel entries are the
	// tails of their rows: every pre-batch entry is a smaller id.
	for _, l := range g.nodeLabel[ov.numNodes:] {
		g.byLabel[l] = g.byLabel[l][:len(g.byLabel[l])-1]
	}
	g.nodeLabel = g.nodeLabel[:ov.numNodes]
	for d, a := range []*adjacency{&g.out, &g.in} {
		a.off, a.arena, a.dead = a.off[:ov.numNodes], a.arena[:ov.tails[d]], ov.dead[d]
	}
	g.numEdges = ov.numEdges
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
	if ov.stale() {
		return fmt.Errorf("graph: rollback of a stale view (version %d, now %d)", ov.validAt, g.version)
	}
	took := len(g.nodeLabel) > ov.numNodes
	vg.restore(ov)
	if took {
		// Nodes went, which no edit says: the log ends here, as at a
		// building call's unlogged bump, and a reader from before rebuilds.
		g.version++
		return nil
	}
	// The log takes the batch back as a version of its own: its edits
	// flipped, so a reader from before the batch folds the two to nothing.
	for i := range ov.edits {
		ov.edits[i].Added = !ov.edits[i].Added
	}
	g.logVersion(ov.edits)
	return nil
}
