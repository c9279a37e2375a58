package dynamic

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// ReachPlan is a pattern compiled for pattern-directed affected sets: the
// focus candidates a batch can flip, found by walking the pattern's own
// labels and directions back from each changed edge instead of taking the
// label-blind undirected ball around it.
//
// Whether vx answers a positive pattern P is a function of the stratified
// isomorphisms of P anchored at vx and of CountOut(h(u), l) at the images
// of ratio-quantified edges (u -l-> ·). A changed edge (a -l-> b) can
// alter either only for an isomorphism h with h(u) = a on some pattern
// edge (u -l-> u′), and h maps any pattern path from u to the focus onto
// a graph path from a to vx — in the old graph when the edge was removed
// (the isomorphism existed there), in the new graph when it was inserted.
// One rule per pattern edge records that path. The seed is not filtered
// by b's label: CountOut counts every l-edge whatever its target. Q's
// answer is Π(Q) minus every Π(Q+e), so the plan is the union of the
// rules of each evaluated positive pattern — a path through a negated
// edge exists in Π(Q+e) but not in Π(Q). Every path is at most
// RequiredHops(q) long, so the result is a subset of AffectedWithin.
//
// Node labels are immutable and a tombstone keeps its label, so a removed
// node is just a node that lost its edges; a created node cannot be
// reached by any old path and is a candidate by label alone (Π(Q) may be
// the bare focus).
type ReachPlan struct {
	focus string // the focus node's label
	rules []reachRule
}

// reachRule says: a changed edge (a -edge-> ·) whose source carries label
// src seeds a walk from a along path; the nodes it ends on are affected.
type reachRule struct {
	src, edge string
	path      []reachStep
}

// reachStep follows graph edges labelled edge — a node's Out row when the
// pattern edge leaves the current pattern node, its In row otherwise —
// onto nodes labelled node.
type reachStep struct {
	edge string
	out  bool
	node string
}

// NewReachPlan compiles the reach plan of q.
func NewReachPlan(q *core.Pattern) *ReachPlan {
	p := &ReachPlan{focus: q.Nodes[q.Focus].Label}
	have := make(map[string]bool)
	pi, _ := q.Pi()
	p.addPositive(pi, have)
	for _, ei := range q.NegatedEdges() {
		pp, _ := q.PiPlus(ei)
		p.addPositive(pp, have)
	}
	return p
}

// addPositive adds one rule per edge of the positive pattern pos, skipping
// rules Π(Q) or an earlier Π(Q+e) already contributed (have, keyed by the
// rule's printed form).
func (p *ReachPlan) addPositive(pos *core.Pattern, have map[string]bool) {
	// BFS from the focus; via[u] is the edge that discovered u, so
	// following via from u spells a shortest pattern path u → focus.
	via := make([]int, len(pos.Nodes))
	for i := range via {
		via[i] = -1
	}
	seen := make([]bool, len(pos.Nodes))
	seen[pos.Focus] = true
	for queue := []int{pos.Focus}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for ei, e := range pos.Edges {
			next := -1
			switch u {
			case e.From:
				next = e.To
			case e.To:
				next = e.From
			}
			if next >= 0 && !seen[next] {
				seen[next], via[next] = true, ei
				queue = append(queue, next)
			}
		}
	}
	for _, e := range pos.Edges {
		if !seen[e.From] {
			continue // outside the focus component: never evaluated
		}
		r := reachRule{src: pos.Nodes[e.From].Label, edge: e.Label}
		for u := e.From; u != pos.Focus; {
			step := pos.Edges[via[u]]
			next := step.From
			if next == u {
				next = step.To
			}
			r.path = append(r.path, reachStep{edge: step.Label, out: step.From == u, node: pos.Nodes[next].Label})
			u = next
		}
		if key := fmt.Sprintf("%#v", r); !have[key] {
			have[key] = true
			p.rules = append(p.rules, r)
		}
	}
}

// Affected returns the sorted focus candidates whose membership the batch
// that turned old into newG can have changed; touched is the batch's
// touched set (Versioned.Apply's, or Apply's with the pre-batch graph as
// old).
func (p *ReachPlan) Affected(old, newG graph.View, touched []graph.NodeID) []graph.NodeID {
	dst := make(map[graph.NodeID]bool)
	for _, v := range touched {
		if int(v) >= old.NumNodes() && newG.NodeLabelName(v) == p.focus {
			dst[v] = true
		}
	}
	for _, r := range p.rules {
		// The changed edges come from a row diff of the touched nodes:
		// every inserted or removed edge has its source among them (a
		// removed node's in-edges sit in its former neighbours' rows).
		// Labels resolve per graph — old may be a rebuilt graph with its
		// own interner.
		lo, ln := old.LookupLabel(r.edge), newG.LookupLabel(r.edge)
		var lost, gained []graph.NodeID
		for _, a := range touched {
			if newG.NodeLabelName(a) != r.src {
				continue
			}
			var was, now []graph.Edge
			if int(a) < old.NumNodes() {
				was = labelRun(old.Out(a), lo)
			}
			now = labelRun(newG.Out(a), ln)
			if missesAny(was, now) {
				lost = append(lost, a)
			}
			if missesAny(now, was) {
				gained = append(gained, a)
			}
		}
		walk(dst, old, lost, r.path)
		walk(dst, newG, gained, r.path)
	}
	return sortedNodeSet(dst)
}

// labelRun returns the edges labelled l of an adjacency row (sorted by
// label, then endpoint).
func labelRun(row []graph.Edge, l graph.LabelID) []graph.Edge {
	if l == graph.NoLabel {
		return nil
	}
	lo := sort.Search(len(row), func(i int) bool { return row[i].Label >= l })
	hi := sort.Search(len(row), func(i int) bool { return row[i].Label > l })
	return row[lo:hi]
}

// missesAny reports whether some endpoint of run a is absent from run b;
// both are one label's edges, ascending by endpoint.
func missesAny(a, b []graph.Edge) bool {
	j := 0
	for _, e := range a {
		for j < len(b) && b[j].To < e.To {
			j++
		}
		if j == len(b) || b[j].To != e.To {
			return true
		}
	}
	return false
}

// walk follows path from the seeds over g and marks the nodes it ends on.
func walk(dst map[graph.NodeID]bool, g graph.View, seeds []graph.NodeID, path []reachStep) {
	frontier := seeds
	for _, st := range path {
		if len(frontier) == 0 {
			return
		}
		l := g.LookupLabel(st.edge)
		seen := make(map[graph.NodeID]bool)
		var next []graph.NodeID
		for _, v := range frontier {
			row := g.In(v)
			if st.out {
				row = g.Out(v)
			}
			for _, e := range labelRun(row, l) {
				if !seen[e.To] && g.NodeLabelName(e.To) == st.node {
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	for _, v := range frontier {
		dst[v] = true
	}
}
