// Package simulation implements the graph-simulation candidate filter of
// the paper's Appendix B (Lemma 13): a quantifier-aware dual simulation
// that over-approximates isomorphism participation and is used by QMatch
// to shrink candidate sets before search.
//
// Refinement is a worklist, not a sweep: one full pass checks every
// candidate once, and from then on a candidate is re-checked only when a
// node it has an edge to — under a pattern edge's label and direction —
// has just been removed, the only event that can break a local condition
// that held before. The greatest fixpoint is unique, so the result is the
// one sweeping every set until nothing changes reaches.
package simulation

import (
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
)

// Candidates returns, for each pattern node u, the set of graph nodes that
// (quantified-)simulate u. The result over-approximates the match sets
// Q(u, G): every node appearing as h(u) in a valid quantified match of the
// pattern's positive part survives the refinement.
//
// The initial sets are label-based. Refinement then repeatedly removes a
// candidate v of u when
//
//   - some non-negated out-edge e = (u, u′) has fewer than need(e, v)
//     children of v (via e's label) left in C(u′), where need is the
//     numeric threshold of e's quantifier at total |Me(v)| (Lemma 13's
//     |R(vx,v,G)| ⊙ p test, with need = 1 for existential edges), or
//   - some non-negated in-edge (u″, u) leaves v without any candidate
//     parent in C(u″).
//
// When quantified is false, thresholds are ignored and need is always 1
// (plain dual simulation); this is used for differential testing.
//
// The boolean result is false when some pattern node ends up with an empty
// candidate set (the pattern has no matches at all).
func Candidates(g *graph.Graph, p *core.Pattern, quantified bool) ([]*bitset.Set, bool) {
	n := g.NumNodes()
	sets := make([]*bitset.Set, len(p.Nodes))
	for u, pn := range p.Nodes {
		sets[u] = bitset.New(n)
		for _, v := range g.NodesByLabelName(pn.Label) {
			sets[u].Add(int(v))
		}
		if sets[u].Empty() {
			return sets, false
		}
	}

	edgeLabel := make([]graph.LabelID, len(p.Edges))
	for i, e := range p.Edges {
		edgeLabel[i] = g.LookupLabel(e.Label)
		if edgeLabel[i] == graph.NoLabel && !e.IsNegated() {
			// A required edge label absent from the graph: no matches.
			for u := range sets {
				sets[u].Clear()
			}
			return sets, false
		}
	}

	r := refiner{g: g, p: p, sets: sets, edgeLabel: edgeLabel, quantified: quantified}
	r.left = make([]int, len(sets))
	for u := range sets {
		r.left[u] = sets[u].Count()
	}
	// Round one re-checks everything; each later round only the marked.
	marked := make([]*bitset.Set, len(sets))
	for u := range marked {
		marked[u] = sets[u].Clone()
	}
	for {
		for u := range p.Nodes {
			marked[u].IntersectWith(sets[u])
			marked[u].ForEach(func(vi int) bool {
				if !r.simOK(u, graph.NodeID(vi)) {
					r.remove(u, graph.NodeID(vi))
				}
				return true
			})
			marked[u].Clear()
			if r.left[u] == 0 {
				return sets, false
			}
		}
		if len(r.gone) == 0 {
			return sets, true
		}
		// The removal of v from C(u) can only invalidate parents of v in
		// C(u″) for an edge (u″, u), which lose a child, and children of v
		// in C(u′) for an edge (u, u′), which lose a parent. Marking makes
		// the next round re-check each of them once, however many of its
		// neighbours went.
		for _, rm := range r.gone {
			for i, e := range p.Edges {
				if e.IsNegated() {
					continue
				}
				if e.To == rm.u {
					for _, ge := range g.InByLabel(rm.v, edgeLabel[i]) {
						marked[e.From].Add(int(ge.To))
					}
				}
				if e.From == rm.u {
					for _, ge := range g.OutByLabel(rm.v, edgeLabel[i]) {
						marked[e.To].Add(int(ge.To))
					}
				}
			}
		}
		r.gone = r.gone[:0]
	}
}

// refiner is the state of one Candidates refinement.
type refiner struct {
	g          *graph.Graph
	p          *core.Pattern
	sets       []*bitset.Set
	edgeLabel  []graph.LabelID
	quantified bool

	left []int     // per pattern node: candidates remaining
	gone []removal // this round's removals; their neighbours are re-checked next round
}

type removal struct {
	u int
	v graph.NodeID
}

func (r *refiner) remove(u int, v graph.NodeID) {
	r.sets[u].Remove(int(v))
	r.left[u]--
	r.gone = append(r.gone, removal{u, v})
}

// simOK checks the local simulation conditions for candidate v of pattern
// node u.
func (r *refiner) simOK(u int, v graph.NodeID) bool {
	for i, e := range r.p.Edges {
		if e.IsNegated() {
			continue
		}
		if e.From == u && !r.childrenOK(i, v) {
			return false
		}
		if e.To == u && !r.parentOK(i, v) {
			return false
		}
	}
	return true
}

// childrenOK reports whether v, a candidate of pattern edge i's source,
// keeps enough children via the edge's label in the target's set.
func (r *refiner) childrenOK(i int, v graph.NodeID) bool {
	e := r.p.Edges[i]
	children := r.g.OutByLabel(v, r.edgeLabel[i])
	need := 1
	if r.quantified {
		var ok bool
		need, ok = e.Q.Threshold(len(children))
		if !ok {
			return false
		}
		if need < 1 {
			need = 1 // the edge must still be embeddable
		}
	}
	if len(children) < need {
		return false
	}
	to := r.sets[e.To]
	for _, ge := range children {
		if to.Contains(int(ge.To)) {
			if need--; need == 0 {
				return true
			}
		}
	}
	return false
}

// parentOK reports whether v, a candidate of pattern edge i's target,
// keeps a parent via the edge's label in the source's set.
func (r *refiner) parentOK(i int, v graph.NodeID) bool {
	from := r.sets[r.p.Edges[i].From]
	for _, ge := range r.g.InByLabel(v, r.edgeLabel[i]) {
		if from.Contains(int(ge.To)) {
			return true
		}
	}
	return false
}
