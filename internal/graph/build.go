package graph

import (
	"cmp"
	"slices"
)

// build finalizes g from its node labels and its out-edges, laid out row
// after row in backing: v's row is backing[end[v-1]:end[v]] (from 0 for
// v = 0), its edges in input order, duplicates allowed. It is the one
// construction path behind Finalize, Clone, the text and binary readers
// and InducedOf, and it works in counting passes, never by appending to a
// row: out-rows keep their input order, in-rows are filled by source, so
// a row that arrived in (label, endpoint) order comes out sorted, and
// only a row found out of order is sorted (and an out-row deduplicated).
// Each direction's rows are then laid out in an arena of exactly their
// regions, with a 32nd of spare room. A layout past the int32 offset range
// is refused, and g is left as it was. build takes backing and end over.
func (g *Graph) build(backing []Edge, end []int) error {
	n := sortRows(backing, end)
	out, err := layout(backing[:n], end)
	if err != nil {
		return err
	}
	in, err := layout(mirror(backing[:n], end))
	if err != nil {
		return err
	}
	g.out, g.in, g.numEdges, g.staged = out, in, n, nil
	g.byLabel = labelIndex(g.nodeLabel, g.interner.Len())
	g.finalized = true
	return nil
}

// srcEdge is one edge of a flat edge list: its source and its out-row
// entry.
type srcEdge struct {
	From NodeID
	Edge
}

// layOut lays g's edges out row after row for build: each node's built
// row, then its edges in staged, in input order. A counting pass by source
// sizes the rows.
func (g *Graph) layOut(staged []srcEdge) ([]Edge, []int) {
	// end[v] counts v's edges, then becomes the start of v's row, and
	// after the copies the end of it.
	end, built := make([]int, len(g.nodeLabel)), len(g.out.off)
	for v := range built {
		end[v] = g.OutDegree(NodeID(v))
	}
	for _, e := range staged {
		end[e.From]++
	}
	backing := make([]Edge, startsOf(end))
	for v := range built {
		end[v] += copy(backing[end[v]:], g.Out(NodeID(v)))
	}
	for _, e := range staged {
		backing[end[e.From]] = e.Edge
		end[e.From]++
	}
	return backing, end
}

// sortRows sorts and deduplicates any row found out of order, moves the
// rows together over the duplicates dropped, and returns the number of
// edges they keep; end follows the rows.
func sortRows(backing []Edge, end []int) int {
	w, lo := 0, 0
	for v, hi := range end {
		row := backing[lo:hi]
		if !ordered(row) {
			// (label, endpoint) orders a row totally, so any sort gives the
			// same row.
			slices.SortFunc(row, func(a, b Edge) int {
				return cmp.Or(cmp.Compare(a.Label, b.Label), cmp.Compare(a.To, b.To))
			})
			row = slices.Compact(row)
		}
		if w != lo {
			copy(backing[w:], row)
		}
		w += len(row)
		end[v], lo = w, hi
	}
	return w
}

// ordered reports whether a row ascends strictly by (label, endpoint):
// sorted and free of duplicates.
func ordered(row []Edge) bool {
	for i := 1; i < len(row); i++ {
		if a, b := row[i-1], row[i]; a.Label > b.Label || a.Label == b.Label && a.To >= b.To {
			return false
		}
	}
	return true
}

// mirror lays out the in-rows of the sorted out-rows in backing: a
// counting pass by target sizes them, and filling them source by source
// leaves each one ascending by source, which layout sorts by label.
func mirror(backing []Edge, end []int) ([]Edge, []int) {
	inEnd := make([]int, len(end))
	for _, e := range backing {
		inEnd[e.To]++
	}
	startsOf(inEnd)
	in := make([]Edge, len(backing))
	lo := 0
	for v, hi := range end {
		for _, e := range backing[lo:hi] {
			in[inEnd[e.To]] = Edge{To: NodeID(v), Label: e.Label}
			inEnd[e.To]++
		}
		lo = hi
	}
	return in, inEnd
}

// layout lays rows, v's being backing[end[v-1]:end[v]], out in an arena of
// exactly their regions, each with no spare room, and a 32nd to spare. The rows ascend by
// endpoint within each label; a row with its labels out of order is
// stable-sorted by label, which makes it ascend by (label, endpoint).
func layout(backing []Edge, end []int) (adjacency, error) {
	slots, lo := header, 0
	for _, hi := range end {
		if row := backing[lo:hi]; !ordered(row) {
			slices.SortStableFunc(row, func(a, b Edge) int { return cmp.Compare(a.Label, b.Label) })
		}
		for i := lo; i < hi; i++ {
			if endsRun(backing[lo:hi], i-lo) {
				slots++
			}
		}
		if hi > lo {
			slots += header + hi - lo
		}
		lo = hi
	}
	if err := fitsOffsets(slots); err != nil {
		return adjacency{}, err
	}
	a := adjacency{arena: make([]Edge, header, slots+slots/arenaSpare), off: make([]int32, len(end))}
	lo = 0
	for v, hi := range end {
		if row := backing[lo:hi]; len(row) > 0 {
			o := len(a.arena)
			a.off[v] = int32(o)
			a.arena = appendRuns(append(a.arena, Edge{}), row)
			a.arena[o].To = NodeID(len(a.arena) - o - header)
			a.arena = append(a.arena, row...)
			a.arena[o].Label = LabelID(len(a.arena) - o - header)
		}
		lo = hi
	}
	return a, nil
}

// startsOf turns counts into the offsets where each count's stretch
// starts in one array, and returns their sum.
func startsOf(counts []int) int {
	sum := 0
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
	return sum
}

// labelIndex lists the nodes of each label, ascending, in one array.
func labelIndex(nodeLabel []LabelID, labels int) map[LabelID][]NodeID {
	count := make([]int, labels)
	for _, l := range nodeLabel {
		count[l]++
	}
	backing := make([]NodeID, len(nodeLabel))
	rows := make([][]NodeID, labels)
	off := 0
	for l, c := range count {
		rows[l] = backing[off : off : off+c]
		off += c
	}
	for v, l := range nodeLabel {
		rows[l] = append(rows[l], NodeID(v))
	}
	idx := make(map[LabelID][]NodeID)
	for l, row := range rows {
		if len(row) > 0 {
			idx[LabelID(l)] = row
		}
	}
	return idx
}
