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
// by a flood from the seeds — the endpoints of the edges edited since and
// the nodes born since — and S′ ⊆ S ∪ F: take the pairs of S′ outside S
// and join two of them when a pattern edge and a graph edge under its
// label connect them. A group without a seed has, in the old graph, the
// same rows it has now, and its witnesses lie in S or in the group — so S
// plus the group was a dual simulation of the old graph, larger than its
// greatest one. Hence every group contains a seed, and the flood, which
// starts at the seeds and follows exactly those joins, reaches all of it.
// Refining S ∪ F, with the seeds that are members and F to re-check, then
// yields S′ exactly. Nothing in the argument needs S to be non-empty: when
// a set runs empty, every set of a connected pattern follows it, the
// all-empty sets are the exact greatest fixpoint, and a later Repair
// starts from them — which is why a failed refinement clears every set
// rather than stopping half-way.
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
	"slices"

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
// When quantified is false, thresholds are ignored and need is always 1:
// plain dual simulation, which every product caller asks for (a
// match.Bound's candidate sets, on which its acceptance filter judges the
// thresholds). Only tests ask for the quantified refinement.
//
// The boolean result is false when some pattern node ends up with an empty
// candidate set (the pattern has no matches at all); every set is then
// empty.
func Candidates(g *graph.Graph, p *core.Pattern, quantified bool) ([]*bitset.Set, bool) {
	n := g.NumNodes()
	sets := make([]*bitset.Set, len(p.Nodes))
	for u := range sets {
		sets[u] = bitset.New(n)
	}
	edgeLabel := make([]graph.LabelID, len(p.Edges))
	for i, e := range p.Edges {
		edgeLabel[i] = g.LookupLabel(e.Label)
		if edgeLabel[i] == graph.NoLabel && !e.IsNegated() {
			return sets, false // a required edge label absent from the graph
		}
	}
	for _, pn := range p.Nodes {
		if len(g.NodesByLabelName(pn.Label)) == 0 {
			return sets, false
		}
	}
	for u, pn := range p.Nodes {
		for _, v := range g.NodesByLabelName(pn.Label) {
			sets[u].Add(int(v))
		}
	}

	r := newRefiner(g, p, sets, edgeLabel, quantified)
	// Round one re-checks everything: a share of |V| per pattern node, so
	// the marks are a bitset per node.
	r.bits = make([]*bitset.Set, len(sets))
	for u := range sets {
		r.bits[u] = sets[u].Clone()
	}
	if !r.refine(false) {
		for _, s := range sets {
			s.Clear()
		}
		return sets, false
	}
	return sets, true
}

// Repair carries sets — Candidates(old, p, false) of an earlier state of g,
// or the sets an earlier Repair left — to g's current state, in place, at
// a cost that depends on edits and what they unsettle rather than on |G|.
// p must be connected. edits must hold every edge present in one state and
// not the other (graph.EditsSince the earlier state's version: edits undone
// since are allowed); an endpoint past g, a node a rollback took away, is
// skipped. The nodes past the sets' length were born since; node labels
// are immutable and the sets no longer than g. wasOK is the verdict the
// sets were left with (Candidates' or the last Repair's): false says every
// set is empty, and the repair then reads only what it re-admits, never a
// whole set. The result is exactly Candidates(g, p, false): see the
// package comment, which covers a start from all-empty sets too. changed
// lists the pairs that entered or left a set (a superset: a pair may be
// listed and end up where it was), for holders of state derived from the
// sets. On false some set ran empty — the pattern has no match now — and
// every set is cleared; changed is then incomplete, and the holder treats
// every pair as gone.
func Repair(g *graph.Graph, p *core.Pattern, sets []*bitset.Set, edits []graph.EdgeEdit, wasOK bool) (changed []Pair, ok bool) {
	edgeLabel := make([]graph.LabelID, len(p.Edges))
	for i, e := range p.Edges {
		// A label the graph never interned is NoLabel, whose runs are
		// empty: nothing is admitted over it until a batch brings it.
		edgeLabel[i] = g.LookupLabel(e.Label)
	}
	nodeLabel := make([]graph.LabelID, len(p.Nodes))
	n, born := g.NumNodes(), sets[0].Len()
	for u, pn := range p.Nodes {
		nodeLabel[u] = g.LookupLabel(pn.Label)
		sets[u].Grow(n)
	}
	r := newRefiner(g, p, sets, edgeLabel, false)
	r.keep = true
	r.pairs = make([]uint64, 0, 2*(2*len(edits)+n-born)*len(p.Nodes))

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
			r.mark(u, v)
			changed = append(changed, Pair{u, v})
		}
	}
	seed := func(v graph.NodeID) {
		for u := range p.Nodes {
			if sets[u].Contains(int(v)) {
				r.mark(u, v) // its rows changed: re-check
			} else {
				admit(u, v)
			}
		}
	}
	for _, e := range edits {
		for _, v := range [2]graph.NodeID{e.From, e.To} {
			if int(v) < n {
				seed(v)
			}
		}
	}
	for v := born; v < n; v++ {
		seed(graph.NodeID(v))
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
	// From all-empty sets a set is non-empty exactly when the flood
	// admitted into it, and the admitted pairs are all there is to clear.
	empty := false
	if !wasOK {
		for u := range sets {
			empty = empty || !slices.ContainsFunc(changed, func(c Pair) bool { return c.U == u })
		}
	}
	if !r.refine(empty) {
		if wasOK {
			for _, s := range sets {
				s.Clear()
			}
		} else {
			for _, c := range changed {
				sets[c.U].Remove(int(c.V))
			}
		}
		return changed, false
	}
	return append(changed, r.removed...), true
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

	gone []Pair // this round's removals; their neighbours are re-checked next round
	lost []bool // per pattern node: whether this round removed from its set
	// removed collects every round's removals when keep is set (Repair
	// reports them).
	keep    bool
	removed []Pair

	// The candidates the next round re-checks: a bitset per pattern node
	// when bits is set (Candidates, whose rounds re-check a share of |V|),
	// else a list of pattern node<<32 | graph node, sorted and deduplicated
	// per round (Repair, whose rounds re-check what a batch unsettled:
	// nothing sized by |V|).
	bits  []*bitset.Set
	pairs []uint64
}

// Pair is a graph node V as a candidate of pattern node U.
type Pair struct {
	U int
	V graph.NodeID
}

func newRefiner(g *graph.Graph, p *core.Pattern, sets []*bitset.Set, edgeLabel []graph.LabelID, quantified bool) *refiner {
	return &refiner{g: g, p: p, sets: sets, edgeLabel: edgeLabel, quantified: quantified, lost: make([]bool, len(sets))}
}

// mark has the next round re-check v as a candidate of u.
func (r *refiner) mark(u int, v graph.NodeID) {
	if r.bits != nil {
		r.bits[u].Add(int(v))
	} else {
		r.pairs = append(r.pairs, uint64(u)<<32|uint64(v))
	}
}

// check re-checks each marked candidate once, removing those whose local
// conditions fail, and unmarks them all.
func (r *refiner) check() {
	recheck := func(u int, v graph.NodeID) {
		if r.sets[u].Contains(int(v)) && !r.simOK(u, v) {
			r.remove(u, v)
		}
	}
	if r.bits != nil {
		for u, marked := range r.bits {
			marked.ForEach(func(vi int) bool {
				recheck(u, graph.NodeID(vi))
				return true
			})
			marked.Clear()
		}
		return
	}
	slices.Sort(r.pairs)
	for _, k := range slices.Compact(r.pairs) {
		recheck(int(k>>32), graph.NodeID(uint32(k)))
	}
	r.pairs = r.pairs[:0]
}

// refine runs the refinement rounds to the greatest fixpoint below sets:
// each round re-checks the marked candidates, and marks for the next the
// neighbours of what it removed. Every unmarked member must satisfy its
// local conditions against sets as they stand. empty says some set is
// empty at the start, which the caller knows without reading the sets.
// It reports whether every set stayed non-empty, and stops as soon as one
// did not, leaving the clearing to the caller. Emptiness is asked only of
// the sets a round removed from: a non-empty set answers at its first
// non-zero word, where counting would read all of it.
func (r *refiner) refine(empty bool) bool {
	g, p, sets := r.g, r.p, r.sets
	for !empty {
		r.check()
		for _, rm := range r.gone {
			r.lost[rm.U] = true
		}
		for u, lost := range r.lost {
			if lost {
				r.lost[u] = false
				empty = empty || sets[u].Empty()
			}
		}
		if empty || len(r.gone) == 0 {
			break
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
						if sets[e.From].Contains(int(ge.To)) {
							r.mark(e.From, ge.To)
						}
					}
				}
				if e.From == rm.U {
					for _, ge := range g.OutByLabel(rm.V, r.edgeLabel[i]) {
						if sets[e.To].Contains(int(ge.To)) {
							r.mark(e.To, ge.To)
						}
					}
				}
			}
		}
		if r.keep {
			r.removed = append(r.removed, r.gone...)
		}
		r.gone = r.gone[:0]
	}
	return !empty
}

func (r *refiner) remove(u int, v graph.NodeID) {
	r.sets[u].Remove(int(v))
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
