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
//
// Repair keeps a pattern's plain dual simulation S across a batch instead
// of recomputing it. The new fixpoint S′ may hold pairs (u, v) that S
// lacked, so Repair first re-admits candidates and then refines from the
// pairs whose conditions can have broken. The re-admitted set F is found
// by a flood from the touched nodes, and S′ ⊆ S ∪ F: take the pairs of
// S′ outside S and join two of them when a pattern edge and a graph edge
// under its label connect them. A group without a touched node has, in
// the old graph, the same rows it has now, and its witnesses lie in S or
// in the group — so S plus the group was a dual simulation of the old
// graph, larger than its greatest one. Hence every group contains a
// touched node, and the flood, which starts at the touched nodes and
// follows exactly those joins, reaches all of it. Refining S ∪ F, with
// the touched members and F to re-check, then yields S′ exactly.
//
// The flood only enters a non-member that passes round zero of the
// refinement — every pattern edge at u finds, at v, a neighbour over its
// label carrying the other end's node label — which every pair of S′
// does. The test is what bounds the flood: where a pattern needs a rare
// edge (few persons have a bad_rating), almost every node is a non-member
// next to other non-members, and an untested flood walks through all of
// them only for the refinement to remove them again (negation's Π(Q+e) of
// the benchmark mix at 6 000 persons: 17 089 pairs admitted or removed per
// batch without the test, 14 with it).
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

	r := newRefiner(g, p, sets, edgeLabel, quantified)
	// Round one re-checks everything; each later round only the marked.
	marked := make([]*bitset.Set, len(sets))
	for u := range marked {
		marked[u] = sets[u].Clone()
	}
	return sets, r.refine(marked)
}

// Repair carries sets — Candidates(old, p, false) of an earlier state of g,
// every set non-empty — to g's current state, in place, at a cost that
// depends on touched and what it unsettles rather than on |G|. touched
// must name every node whose adjacency differs between the two states and
// every node born since (Versioned.Apply's touched sets, concatenated over
// the batches in between, in any order, repeats allowed); node labels are
// immutable and node ids only grow. The result is exactly
// Candidates(g, p, false): see the package comment. changed lists the
// pairs that entered or left a set (a superset: a pair may be listed and
// end up where it was), for holders of state derived from the sets. On
// false some set ran empty — the pattern has no match now — and sets is
// left unspecified: the caller drops it.
func Repair(g *graph.Graph, p *core.Pattern, sets []*bitset.Set, touched []graph.NodeID) (changed []Pair, ok bool) {
	edgeLabel := make([]graph.LabelID, len(p.Edges))
	for i, e := range p.Edges {
		// Non-empty sets over the earlier state mean every required label
		// was interned then, and the interner only grows.
		edgeLabel[i] = g.LookupLabel(e.Label)
	}
	nodeLabel := make([]graph.LabelID, len(p.Nodes))
	marked := make([]*bitset.Set, len(sets))
	n := g.NumNodes()
	for u, pn := range p.Nodes {
		nodeLabel[u] = g.LookupLabel(pn.Label)
		sets[u].Grow(n)
		marked[u] = bitset.New(n)
	}
	r := newRefiner(g, p, sets, edgeLabel, false)
	r.keep = true

	// plausible is round zero of the refinement, judged on labels alone:
	// every pattern edge at u has, at v, a neighbour over its label that
	// carries the other end's node label. Every member of the new fixpoint
	// passes it, and it is what keeps the flood below inside the few
	// non-members a batch can promote instead of all of them.
	plausible := func(u int, v graph.NodeID) bool {
		for i, e := range p.Edges {
			if e.IsNegated() {
				continue
			}
			if e.From == u && !hasLabelled(g, g.OutByLabel(v, edgeLabel[i]), nodeLabel[e.To]) {
				return false
			}
			if e.To == u && !hasLabelled(g, g.InByLabel(v, edgeLabel[i]), nodeLabel[e.From]) {
				return false
			}
		}
		return true
	}
	// Re-admission opens changed; the pairs from index flooded on still
	// have their neighbours to visit.
	admit := func(u int, v graph.NodeID) {
		if g.NodeLabel(v) == nodeLabel[u] && !sets[u].Contains(int(v)) && plausible(u, v) {
			sets[u].Add(int(v))
			r.left[u]++
			marked[u].Add(int(v))
			changed = append(changed, Pair{u, v})
		}
	}
	for _, v := range touched {
		for u := range p.Nodes {
			if sets[u].Contains(int(v)) {
				marked[u].Add(int(v)) // its rows changed: re-check
			} else {
				admit(u, v)
			}
		}
	}
	for flooded := 0; flooded < len(changed); flooded++ {
		at := changed[flooded]
		for i, e := range p.Edges {
			if e.IsNegated() {
				continue
			}
			if e.From == at.U {
				for _, ge := range g.OutByLabel(at.V, edgeLabel[i]) {
					admit(e.To, ge.To)
				}
			}
			if e.To == at.U {
				for _, ge := range g.InByLabel(at.V, edgeLabel[i]) {
					admit(e.From, ge.To)
				}
			}
		}
	}
	ok = r.refine(marked)
	return append(changed, r.removed...), ok
}

// hasLabelled reports whether some edge of the run ends at a node
// labelled l.
func hasLabelled(g *graph.Graph, run []graph.Edge, l graph.LabelID) bool {
	for _, ge := range run {
		if g.NodeLabel(ge.To) == l {
			return true
		}
	}
	return false
}

// refiner is the state of one refinement: Candidates' or Repair's.
type refiner struct {
	g          *graph.Graph
	p          *core.Pattern
	sets       []*bitset.Set
	edgeLabel  []graph.LabelID
	quantified bool

	left []int  // per pattern node: candidates remaining
	gone []Pair // this round's removals; their neighbours are re-checked next round
	// removed collects every round's removals when keep is set (Repair
	// reports them).
	keep    bool
	removed []Pair
}

// Pair is a graph node V as a candidate of pattern node U.
type Pair struct {
	U int
	V graph.NodeID
}

func newRefiner(g *graph.Graph, p *core.Pattern, sets []*bitset.Set, edgeLabel []graph.LabelID, quantified bool) *refiner {
	r := &refiner{g: g, p: p, sets: sets, edgeLabel: edgeLabel, quantified: quantified, left: make([]int, len(sets))}
	for u := range sets {
		r.left[u] = sets[u].Count()
	}
	return r
}

// refine runs the refinement rounds to the greatest fixpoint below sets:
// each round re-checks the marked candidates, and marks for the next the
// neighbours of what it removed. Every unmarked member must satisfy its
// local conditions against sets as they stand. It reports whether every
// set stayed non-empty.
func (r *refiner) refine(marked []*bitset.Set) bool {
	g, p, sets := r.g, r.p, r.sets
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
				return false
			}
		}
		if len(r.gone) == 0 {
			return true
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
				if e.To == rm.U {
					for _, ge := range g.InByLabel(rm.V, r.edgeLabel[i]) {
						marked[e.From].Add(int(ge.To))
					}
				}
				if e.From == rm.U {
					for _, ge := range g.OutByLabel(rm.V, r.edgeLabel[i]) {
						marked[e.To].Add(int(ge.To))
					}
				}
			}
		}
		if r.keep {
			r.removed = append(r.removed, r.gone...)
		}
		r.gone = r.gone[:0]
	}
}

func (r *refiner) remove(u int, v graph.NodeID) {
	r.sets[u].Remove(int(v))
	r.left[u]--
	r.gone = append(r.gone, Pair{u, v})
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
