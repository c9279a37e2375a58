// Package match implements quantified graph pattern matching: the generic
// backtracking engine (Match, after Lee et al.'s common framework), the
// Enum baseline (enumerate all isomorphisms, then verify quantifiers), the
// optimized QMatch/DMatch algorithm with simulation-based filtering,
// quantifier-aware pruning and early acceptance, and the incremental
// IncQMatch procedure for negated edges (§4 of the paper).
//
// All three search phases — counting, acceptance of a conventional
// pattern, acceptance over finished counts — are one recursion
// (program.extend). Injectivity is a comparison against the at most
// |pattern| nodes already bound (and of those only the ones sharing the new
// node's label), not a |V|-sized stamp array: a program is compiled per
// pattern per batch on the scoped update path, where anything proportional
// to |V| is the dominant cost. The program's search scratch makes it
// single-goroutine; every evaluation compiles its own.
package match

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simulation"
)

// program is a pattern compiled against a graph: resolved labels, a
// connected matching order anchored at the focus, and per-step edge checks.
type program struct {
	g *graph.Graph
	p *core.Pattern

	edgeLabel []graph.LabelID // resolved edge labels (NoLabel → unmatchable)
	order     []int           // pattern node indexes; order[0] is the focus
	anchors   []anchorInfo    // per position ≥ 1: how to generate candidates
	checks    [][]int         // per position: edges verified once this node binds
	rivals    [][]int         // per position: earlier-ordered nodes with the same label
	quant     []int           // non-existential, non-negated edge indexes
	quantOut  [][]int         // per pattern node: its quantified out-edges

	// cand[u] over-approximates the stratified-isomorphism images of u
	// (label-only for Enum, dual simulation for QMatch). Counting is sound
	// against these sets.
	cand []*bitset.Set
	// accept[u] further filters candidates that can appear in a
	// quantifier-valid match (threshold test of Lemma 13). Only acceptance
	// search uses it; counting must not (counts range over all stratified
	// isomorphisms).
	accept []*bitset.Set

	// hasEQ reports a numeric/ratio EQ quantifier that is not universal
	// (count == total); such patterns cannot early-accept.
	hasEQ bool

	// Search scratch (so a program must not be shared between
	// goroutines): the current assignment by pattern node, and the count
	// each quantified edge must reach at its bound source, valid during
	// an early-accepting counting search (see bind).
	assign []graph.NodeID
	need   []int

	// budget, when > 0, caps total extension attempts; budgetExceeded is
	// set when the cap fires and the evaluation must be discarded.
	budget         int64
	budgetExceeded bool
}

// anchorInfo says where a position's candidates come from: the label-l
// children (out) or parents (!out) of the image of pattern node at, which
// the matched prefix already binds.
type anchorInfo struct {
	at  int
	l   graph.LabelID
	out bool
}

var errNoMatches = fmt.Errorf("match: empty candidate set")

// compile builds a program for a positive pattern. useSim selects dual
// simulation (plain, for counting) as the candidate filter; otherwise
// candidates are label-based. quantFilter additionally computes the
// acceptance filter from quantifier thresholds. pref, when a valid
// permutation of node indexes, guides the matching order (see buildOrder).
// compile returns errNoMatches when some candidate set is empty (the
// caller returns an empty answer).
func compile(g *graph.Graph, p *core.Pattern, useSim, quantFilter bool, pref []int) (*program, error) {
	if len(p.NegatedEdges()) != 0 {
		panic("match: compile requires a positive pattern (apply Pi first)")
	}
	pr := &program{g: g, p: p}

	pr.edgeLabel = make([]graph.LabelID, len(p.Edges))
	for i, e := range p.Edges {
		pr.edgeLabel[i] = g.LookupLabel(e.Label)
		if pr.edgeLabel[i] == graph.NoLabel {
			return nil, errNoMatches
		}
	}
	pr.quantOut = make([][]int, len(p.Nodes))
	for i, e := range p.Edges {
		if !e.Q.IsExistential() {
			pr.quant = append(pr.quant, i)
			pr.quantOut[e.From] = append(pr.quantOut[e.From], i)
			// Only GE quantifiers (and the universal = 100%, whose count
			// cannot overshoot) admit early acceptance; EQ/LE/NE need the
			// exact final counts.
			if e.Q.Op() != core.GE && !e.Q.IsUniversal() {
				pr.hasEQ = true
			}
		}
	}

	// Candidate sets: label-only or plain dual simulation (stratified-sound).
	if useSim {
		sets, ok := simulation.Candidates(g, p, false)
		if !ok {
			return nil, errNoMatches
		}
		pr.cand = sets
	} else {
		pr.cand = make([]*bitset.Set, len(p.Nodes))
		for u, pn := range p.Nodes {
			pr.cand[u] = bitset.New(g.NumNodes())
			for _, v := range g.NodesByLabelName(pn.Label) {
				pr.cand[u].Add(int(v))
			}
			if pr.cand[u].Empty() {
				return nil, errNoMatches
			}
		}
	}

	if quantFilter {
		pr.accept = pr.acceptanceFilter()
		if pr.accept[p.Focus].Empty() {
			return nil, errNoMatches
		}
		// Global pruning rule (Lemma 12): the focus has a match only if
		// every pattern node u′ has at least pm candidates, where pm is
		// the largest numeric GE threshold over u′'s incoming quantified
		// edges — a match of u needs that many distinct children matching
		// u′.
		for _, ei := range pr.quant {
			e := p.Edges[ei]
			if e.Q.IsRatio() || e.Q.Op() != core.GE {
				continue
			}
			if pr.cand[e.To].Count() < e.Q.N() {
				return nil, errNoMatches
			}
		}
	} else {
		pr.accept = pr.cand
	}

	pr.buildOrder(pref)
	pr.assign = make([]graph.NodeID, len(p.Nodes))
	pr.need = make([]int, len(p.Edges))
	return pr, nil
}

// acceptanceFilter computes accept[u] ⊆ cand[u]: candidates whose viable
// child counts (within cand, which is stratified-sound) can still satisfy
// every quantified out-edge threshold. A single pass suffices: thresholds
// are judged against cand-based upper bounds, which do not shrink.
func (pr *program) acceptanceFilter() []*bitset.Set {
	accept := make([]*bitset.Set, len(pr.p.Nodes))
	for u := range pr.p.Nodes {
		accept[u] = pr.cand[u].Clone()
	}
	for _, ei := range pr.quant {
		e := pr.p.Edges[ei]
		l := pr.edgeLabel[ei]
		var removed []int
		accept[e.From].ForEach(func(vi int) bool {
			v := graph.NodeID(vi)
			children := pr.g.OutByLabel(v, l)
			need, ok := e.Q.Threshold(len(children))
			if !ok {
				removed = append(removed, vi)
				return true
			}
			upper := 0
			for _, ge := range children {
				if pr.cand[e.To].Contains(int(ge.To)) {
					upper++
				}
			}
			if upper < need || upper < 1 {
				removed = append(removed, vi)
			}
			return true
		})
		for _, vi := range removed {
			accept[e.From].Remove(vi)
		}
	}
	return accept
}

// buildOrder computes the matching order: every position after the first
// is adjacent to the matched prefix, with an anchor edge into the prefix
// and the set of edges that become fully bound at that position. Without a
// preference the order is breadth-first from the focus; with a valid
// preference (a permutation of node indexes from a planner) it greedily
// follows the preference, at each step placing the most-preferred node
// that is connected to the prefix.
func (pr *program) buildOrder(pref []int) {
	p := pr.p
	n := len(p.Nodes)
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	type half struct{ other, edge int }
	adj := make([][]half, n)
	for i, e := range p.Edges {
		adj[e.From] = append(adj[e.From], half{e.To, i})
		adj[e.To] = append(adj[e.To], half{e.From, i})
	}

	pr.order = []int{p.Focus}
	pos[p.Focus] = 0
	if rank := prefRank(pref, n); rank != nil {
		for len(pr.order) < n {
			best := -1
			for u := 0; u < n; u++ {
				if pos[u] >= 0 {
					continue
				}
				connected := false
				for _, h := range adj[u] {
					if pos[h.other] >= 0 {
						connected = true
						break
					}
				}
				if connected && (best < 0 || rank[u] < rank[best]) {
					best = u
				}
			}
			if best < 0 {
				break // disconnected pattern; caller validates connectivity
			}
			pos[best] = len(pr.order)
			pr.order = append(pr.order, best)
		}
	}
	for qi := 0; qi < len(pr.order); qi++ {
		u := pr.order[qi]
		// Default breadth-first completion: visit neighbors in edge order
		// for determinism; candidate ordering happens at run time.
		for _, h := range adj[u] {
			if pos[h.other] < 0 {
				pos[h.other] = len(pr.order)
				pr.order = append(pr.order, h.other)
			}
		}
	}

	pr.anchors = make([]anchorInfo, len(pr.order))
	pr.checks = make([][]int, len(pr.order))
	// Candidate sets are label-exact, so only an earlier node with the
	// same label can already hold the image a later one is offered.
	pr.rivals = make([][]int, len(pr.order))
	for i, u := range pr.order {
		for _, r := range pr.order[:i] {
			if p.Nodes[r].Label == p.Nodes[u].Label {
				pr.rivals[i] = append(pr.rivals[i], r)
			}
		}
	}
	seen := make([]bool, len(p.Edges))
	for i := 1; i < len(pr.order); i++ {
		u := pr.order[i]
		anchorSet := false
		for ei, e := range p.Edges {
			var other int
			var out bool
			switch {
			case e.From == u && pos[e.To] < i:
				other, out = e.To, false // u is the source; matched node is target
			case e.To == u && pos[e.From] < i:
				other, out = e.From, true // matched node is the source
			default:
				continue
			}
			if !anchorSet {
				pr.anchors[i] = anchorInfo{at: other, l: pr.edgeLabel[ei], out: out}
				anchorSet = true
				seen[ei] = true
				continue
			}
			if !seen[ei] {
				pr.checks[i] = append(pr.checks[i], ei)
				seen[ei] = true
			}
		}
		if !anchorSet {
			panic("match: disconnected pattern in buildOrder")
		}
	}
}

// prefRank validates a proposed order and converts it to a rank lookup:
// rank[u] is u's position in the proposal. It returns nil when the
// proposal is not a permutation of 0..n-1 (the engine then falls back to
// its default order rather than failing the query).
func prefRank(pref []int, n int) []int {
	if len(pref) != n {
		return nil
	}
	rank := make([]int, n)
	for i := range rank {
		rank[i] = -1
	}
	for i, u := range pref {
		if u < 0 || u >= n || rank[u] >= 0 {
			return nil
		}
		rank[u] = i
	}
	return rank
}
