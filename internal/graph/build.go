package graph

import (
	"cmp"
	"slices"
)

// build finalizes g from its node labels and its out-edges, laid out row
// after row in backing: v's row is backing[end[v-1]:end[v]] (from 0 for
// v = 0), its edges in input order, duplicates allowed. It is the one
// construction path behind Finalize, the text and binary readers and
// InducedOf, and it works in counting passes, never by appending to a
// row: out-rows keep their input order, in-rows are filled by source, so
// a row that arrived in (label, endpoint) order comes out sorted, and
// only a row found out of order is sorted (and an out-row deduplicated).
// Each direction's rows are packed into one array, each carved with a
// full slice expression, so a later append to one row cannot reach its
// neighbour. build takes backing and end over.
func (g *Graph) build(backing []Edge, end []int) {
	g.out, g.numEdges = outRows(backing, end)
	g.in = inRows(g.out, g.numEdges)
	g.outRuns = indexRows(g.out)
	g.inRuns = indexRows(g.in)
	g.byLabel = labelIndex(g.nodeLabel, g.interner.Len())
	g.finalized = true
}

// srcEdge is one edge of a flat edge list: its source and its out-row
// entry.
type srcEdge struct {
	From NodeID
	Edge
}

// scatter lays a flat edge list out for build: a counting pass by source
// sizes the rows, and each edge goes to its source's row in input order.
func scatter(n int, edges []srcEdge) ([]Edge, []int) {
	// end[v] counts v's edges, then becomes the start of v's row, and
	// after the scatter the end of it.
	end := make([]int, n)
	for _, e := range edges {
		end[e.From]++
	}
	startsOf(end)
	backing := make([]Edge, len(edges))
	for _, e := range edges {
		backing[end[e.From]] = e.Edge
		end[e.From]++
	}
	return backing, end
}

// outRows carves the out-rows from backing, sorting and deduplicating any
// row found out of order, and returns them with the number of edges they
// keep.
func outRows(backing []Edge, end []int) ([][]Edge, int) {
	rows := make([][]Edge, len(end))
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
		if len(row) > 0 {
			if w != lo {
				copy(backing[w:], row)
			}
			rows[v] = backing[w : w+len(row) : w+len(row)]
			w += len(row)
		}
		lo = hi
	}
	if w < cap(backing) {
		// Duplicates were dropped, or the array had room to spare: move the
		// rows to an array of their size.
		packed := make([]Edge, w)
		copy(packed, backing)
		off := 0
		for v, row := range rows {
			if len(row) > 0 {
				rows[v] = packed[off : off+len(row) : off+len(row)]
				off += len(row)
			}
		}
	}
	return rows, w
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

// inRows mirrors the finalized out-rows, which hold total edges: a
// counting pass by target sizes the in-rows, and filling them source by
// source leaves each one ascending by source. A row that then has its
// labels out of order is stable-sorted by label, which makes it ascend
// by (label, source).
func inRows(out [][]Edge, total int) [][]Edge {
	end := make([]int, len(out))
	for _, row := range out {
		for _, e := range row {
			end[e.To]++
		}
	}
	startsOf(end)
	backing := make([]Edge, total)
	for v, row := range out {
		for _, e := range row {
			backing[end[e.To]] = Edge{To: NodeID(v), Label: e.Label}
			end[e.To]++
		}
	}
	rows := make([][]Edge, len(out))
	lo := 0
	for v, hi := range end {
		if hi > lo {
			row := backing[lo:hi:hi]
			if !ordered(row) {
				slices.SortStableFunc(row, func(a, b Edge) int { return cmp.Compare(a.Label, b.Label) })
			}
			rows[v] = row
		}
		lo = hi
	}
	return rows
}

// startsOf turns counts into the offsets where each count's stretch
// starts in one array.
func startsOf(counts []int) {
	sum := 0
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
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
