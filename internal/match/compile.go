// Package match implements quantified graph pattern matching: the generic
// backtracking engine (Match, after Lee et al.'s common framework), the
// Enum baseline (enumerate all isomorphisms, then verify quantifiers), the
// optimized QMatch/DMatch algorithm with simulation-based filtering,
// quantifier-aware pruning and early acceptance, and the incremental
// IncQMatch procedure for negated edges (§4 of the paper).
//
// Evaluation is split by what it depends on, in three tiers. Prepare does,
// once per pattern, everything the pattern alone decides: validation, Π(Q)
// and each Π(Q+e), and per positive pattern (a positive) the
// quantified-edge tables and the default matching order with its anchors,
// checks and rivals. A Prepared is immutable and shared: a standing watch
// holds one for its lifetime and every worker session may run it at once.
// Bind does, once per graph version, what the pattern and the graph's state
// decide (a Bound): labels are resolved — a later batch may intern a label
// that was absent — and, for the first run that needs them, each positive's
// candidate and acceptance sets are built, the O(|Q|·|G|) prefilter. A
// holder that sees the graph change calls Advance with the touched nodes
// and the sets are repaired instead of rebuilt; a Bound nobody advanced
// notices the graph's version moved and rebinds. Run allocates, per run, a
// program with O(|Q|) search scratch over the Bound's read-only sets, which
// makes the program, not the Bound, single-goroutine. Prepared.Run and the
// one-shot QMatch/QMatchN/Enum are Bind + Run: one path, and for a single
// evaluation the same work.
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
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
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

// program is a bound positive set up for one run: the Bound's resolved
// labels and candidate sets (shared, read-only), the matching order in use
// and the search scratch.
type program struct {
	g *graph.Graph
	p *core.Pattern

	// From the positive (shared, read-only).
	quant    []int
	quantOut [][]int
	hasEQ    bool
	matchOrder

	// From the Bound (shared, read-only).
	edgeLabel []graph.LabelID // per pattern edge
	nodeLabel []graph.LabelID // per pattern node
	// cand and accept are the bound positive's sets, or nil on the
	// focus-scoped fast path: the label classes in predicate form,
	// w ∈ cand[u] iff g.NodeLabel(w) == nodeLabel[u]. Counting runs against
	// cand (sound: it over-approximates the stratified isomorphisms); only
	// the acceptance search may use the threshold-filtered accept.
	cand, accept []*bitset.Set

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
