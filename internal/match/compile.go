// Package match implements quantified graph pattern matching: the generic
// backtracking engine (Match, after Lee et al.'s common framework), the
// Enum baseline (enumerate all isomorphisms, then verify quantifiers), the
// optimized QMatch/DMatch algorithm with simulation-based filtering,
// quantifier-aware pruning and early acceptance, and the incremental
// IncQMatch procedure for negated edges (§4 of the paper).
//
// Evaluation is split by what it depends on. Prepare does, once per
// pattern, everything the pattern alone decides: validation, Π(Q) and each
// Π(Q+e), and per positive pattern (a positive) the quantified-edge
// tables and the default matching order with its anchors, checks and
// rivals. A Prepared is immutable and shared: a standing watch holds one
// for its lifetime and every worker session may run it at once. Run binds
// it to one graph (positive.bind): labels are resolved per run — a later
// batch may intern a label that was absent — candidate sets are built, and
// a program with O(|Q|) search scratch is allocated, which makes the
// program, not the Prepared, single-goroutine.
//
// All three search phases — counting, acceptance of a conventional
// pattern, acceptance over finished counts — are one recursion
// (program.extend). Injectivity is a comparison against the at most
// |pattern| nodes already bound (and of those only the ones sharing the new
// node's label), not a |V|-sized stamp array, and a candidate set that is
// only ever asked for membership is a label predicate, not a |V|-bit set:
// a scoped re-verification allocates nothing proportional to |V|.
package match

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simulation"
)

// positive is what evaluation derives from one positive pattern alone. It
// is immutable once built; every run reads it.
type positive struct {
	name string // within the query: "pi", or "pi+e<i>" for negated edge i
	p    *core.Pattern

	quant    []int   // non-existential, non-negated edge indexes
	quantOut [][]int // per pattern node: its quantified out-edges
	// hasEQ reports a numeric/ratio EQ quantifier that is not universal
	// (count == total); such patterns cannot early-accept.
	hasEQ bool

	def matchOrder // the default (breadth-first) matching order
}

// matchOrder is a connected matching order anchored at the focus, with the
// per-step work it implies.
type matchOrder struct {
	order   []int        // pattern node indexes; order[0] is the focus
	anchors []anchorInfo // per position ≥ 1: how to generate candidates
	checks  [][]int      // per position: edges verified once this node binds
	rivals  [][]int      // per position: earlier-ordered nodes with the same label
}

// anchorInfo says where a position's candidates come from: the children
// (out) or parents (!out), over pattern edge `edge`'s label, of the image
// of pattern node at, which the matched prefix already binds.
type anchorInfo struct {
	at   int
	edge int
	out  bool
}

// newPositive analyses a positive pattern.
func newPositive(name string, p *core.Pattern) *positive {
	if len(p.NegatedEdges()) != 0 {
		panic("match: newPositive requires a positive pattern (apply Pi first)")
	}
	ps := &positive{name: name, p: p, quantOut: make([][]int, len(p.Nodes))}
	for i, e := range p.Edges {
		if !e.Q.IsExistential() {
			ps.quant = append(ps.quant, i)
			ps.quantOut[e.From] = append(ps.quantOut[e.From], i)
			// Only GE quantifiers (and the universal = 100%, whose count
			// cannot overshoot) admit early acceptance; EQ/LE/NE need the
			// exact final counts.
			if e.Q.Op() != core.GE && !e.Q.IsUniversal() {
				ps.hasEQ = true
			}
		}
	}
	ps.def = buildOrder(p, nil)
	return ps
}

// program is a positive bound to a graph for one run: resolved labels,
// candidate sets, the matching order in use and the search scratch.
type program struct {
	g *graph.Graph
	p *core.Pattern

	// From the positive (shared, read-only).
	quant    []int
	quantOut [][]int
	hasEQ    bool
	matchOrder

	edgeLabel []graph.LabelID // per pattern edge
	nodeLabel []graph.LabelID // per pattern node

	// cand[u] over-approximates the stratified-isomorphism images of u
	// (dual simulation for QMatch, label-based otherwise). Counting is
	// sound against these sets. nil is the label-based sets in predicate
	// form: w ∈ cand[u] iff g.NodeLabel(w) == nodeLabel[u].
	cand []*bitset.Set
	// accept[u] further filters candidates that can appear in a
	// quantifier-valid match (threshold test of Lemma 13). Only acceptance
	// search uses it; counting must not (counts range over all stratified
	// isomorphisms). Without the filter it is cand, nil included.
	accept []*bitset.Set

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

var errNoMatches = fmt.Errorf("match: empty candidate set")

// bind builds the program of one run over g. useSim selects dual
// simulation (plain, for counting) as the candidate filter; otherwise
// candidates are label-based. quantFilter additionally computes the
// acceptance filter from quantifier thresholds. pref, when a valid
// permutation of node indexes, replaces the default matching order (see
// buildOrder). bind returns errNoMatches when some candidate set is empty
// (the caller returns an empty answer).
func (ps *positive) bind(g *graph.Graph, useSim, quantFilter bool, pref []int) (*program, error) {
	p := ps.p
	pr := &program{g: g, p: p, quant: ps.quant, quantOut: ps.quantOut, hasEQ: ps.hasEQ, matchOrder: ps.def}

	labels := make([]graph.LabelID, len(p.Edges)+len(p.Nodes))
	pr.edgeLabel, pr.nodeLabel = labels[:len(p.Edges):len(p.Edges)], labels[len(p.Edges):]
	for i, e := range p.Edges {
		if pr.edgeLabel[i] = g.LookupLabel(e.Label); pr.edgeLabel[i] == graph.NoLabel {
			return nil, errNoMatches
		}
	}
	for u, n := range p.Nodes {
		pr.nodeLabel[u] = g.LookupLabel(n.Label)
		if pr.nodeLabel[u] == graph.NoLabel || len(g.NodesByLabel(pr.nodeLabel[u])) == 0 {
			return nil, errNoMatches
		}
	}

	// Candidate sets: plain dual simulation (stratified-sound) or the
	// label classes — as a predicate unless the acceptance filter below
	// has to carve subsets out of them.
	switch {
	case useSim:
		sets, ok := simulation.Candidates(g, p, false)
		if !ok {
			return nil, errNoMatches
		}
		pr.cand = sets
	case quantFilter:
		pr.cand = make([]*bitset.Set, len(p.Nodes))
		for u := range p.Nodes {
			pr.cand[u] = toBitset(g.NodesByLabel(pr.nodeLabel[u]), g.NumNodes())
		}
	}

	pr.accept = pr.cand
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
	}

	if rank := prefRank(pref, len(p.Nodes)); rank != nil {
		pr.matchOrder = buildOrder(p, rank)
	}
	pr.assign = make([]graph.NodeID, len(p.Nodes))
	pr.need = make([]int, len(p.Edges))
	return pr, nil
}

// admits reports w ∈ sets[u], where nil sets are the label classes.
func (pr *program) admits(sets []*bitset.Set, u int, w graph.NodeID) bool {
	if sets == nil {
		return pr.g.NodeLabel(w) == pr.nodeLabel[u]
	}
	return sets[u].Contains(int(w))
}

// size returns |sets[u]|, where nil sets are the label classes.
func (pr *program) size(sets []*bitset.Set, u int) int {
	if sets == nil {
		return len(pr.g.NodesByLabel(pr.nodeLabel[u]))
	}
	return sets[u].Count()
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

// buildOrder computes a matching order of p: every position after the
// first is adjacent to the matched prefix, with an anchor edge into the
// prefix and the set of edges that become fully bound at that position.
// Without a preference the order is breadth-first from the focus; with
// one (rank[u] is u's position in a planner's proposal, from prefRank) it
// greedily follows the preference, at each step placing the
// most-preferred node that is connected to the prefix.
func buildOrder(p *core.Pattern, rank []int) matchOrder {
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

	order := []int{p.Focus}
	pos[p.Focus] = 0
	if rank != nil {
		for len(order) < n {
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
			pos[best] = len(order)
			order = append(order, best)
		}
	}
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		// Default breadth-first completion: visit neighbors in edge order
		// for determinism; candidate ordering happens at run time.
		for _, h := range adj[u] {
			if pos[h.other] < 0 {
				pos[h.other] = len(order)
				order = append(order, h.other)
			}
		}
	}

	mo := matchOrder{
		order:   order,
		anchors: make([]anchorInfo, len(order)),
		checks:  make([][]int, len(order)),
		// Candidate sets are label-exact, so only an earlier node with the
		// same label can already hold the image a later one is offered.
		rivals: make([][]int, len(order)),
	}
	for i, u := range order {
		for _, r := range order[:i] {
			if p.Nodes[r].Label == p.Nodes[u].Label {
				mo.rivals[i] = append(mo.rivals[i], r)
			}
		}
	}
	seen := make([]bool, len(p.Edges))
	for i := 1; i < len(order); i++ {
		u := order[i]
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
				mo.anchors[i] = anchorInfo{at: other, edge: ei, out: out}
				anchorSet = true
				seen[ei] = true
				continue
			}
			if !seen[ei] {
				mo.checks[i] = append(mo.checks[i], ei)
				seen[ei] = true
			}
		}
		if !anchorSet {
			panic("match: disconnected pattern in buildOrder")
		}
	}
	return mo
}

// prefRank validates a proposed order and converts it to a rank lookup:
// rank[u] is u's position in the proposal. It returns nil when the
// proposal is not a permutation of 0..n-1 (the engine then keeps its
// default order rather than failing the query).
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
