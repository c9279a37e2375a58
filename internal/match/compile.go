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
// quantified-edge tables and its adjacency. A Prepared is immutable and
// shared: a standing watch holds one for its lifetime and every worker
// session may run it at once. Bind does, once per graph version, what the
// pattern and the graph's state decide (a Bound): labels are resolved — a
// later batch may intern a label that was absent — and with them each
// positive's matching order, ranked by the sizes of its label classes in
// that graph (rank), so a fragment orders by its own; and, for the first
// run that needs them, each positive's candidate and acceptance sets are
// built, the O(|Q|·|G|) prefilter. A
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
	"slices"

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

	adj [][]half // per pattern node: its edges, in edge order
	// flat is the matching order when every label class has one size: a
	// Bound starts from it and derives its own only where its graph's class
	// sizes rank the nodes otherwise.
	flat matchOrder
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
	ps.adj = make([][]half, len(p.Nodes))
	for i, e := range p.Edges {
		ps.adj[e.From] = append(ps.adj[e.From], half{e.To, i})
		ps.adj[e.To] = append(ps.adj[e.To], half{e.From, i})
	}
	size := make([]int, len(p.Nodes))
	for u := range size {
		size[u] = 1
	}
	ps.flat = ps.ordered(size, nil)
	return ps
}

// ordered returns the matching order rank gives for the class sizes size:
// cur itself when cur is not nil and already follows it, so a Bound whose
// ranking did not change allocates nothing.
func (ps *positive) ordered(size []int, cur *matchOrder) matchOrder {
	n := len(size)
	var buf [2 * 16]int
	var seen [16]bool
	s, placed := buf[:], seen[:]
	if n > len(seen) {
		s, placed = make([]int, 2*n), make([]bool, n)
	}
	order, via := s[:n], s[n:2*n]
	rank(ps.adj, ps.p.Focus, size, order, via, placed[:n])
	if cur != nil && cur.follows(order, via) {
		return *cur
	}
	return buildOrder(ps.p, order, via)
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

// half is one pattern edge seen from one of its ends: the node at the
// other end and the edge's index.
type half struct{ other, edge int }

// rank places p's nodes in the one matching order, given size[u] =
// |class(u)|, the number of graph nodes carrying u's label. The focus comes
// first. Each next node is the unplaced one with an edge into the prefix
// whose estimate — the smallest |class(u)| / max(|class(a)|, 1) over its
// placed neighbours a — is least; ties go to the node with more edges into
// the prefix, then to the lower index. Its anchor is its first edge, in edge
// order, to a neighbour attaining that estimate. rank writes the order into
// order and each position's anchor edge into via (via[0] is unused), and
// uses placed, all false on entry, as scratch; adj lists each node's edges
// in edge order.
func rank(adj [][]half, focus int, size, order, via []int, placed []bool) {
	order[0], placed[focus] = focus, true
	for i := 1; i < len(order); i++ {
		best, bestVia, bestEdges := -1, -1, 0
		var bestNum, bestDen int // the best estimate, bestNum/bestDen
		for u := range adj {
			if placed[u] {
				continue
			}
			v, num, den, edges := -1, 0, 1, 0
			for _, h := range adj[u] {
				if !placed[h.other] {
					continue
				}
				edges++
				// size[u]/d < num/den, in integers: class sizes are node
				// counts, so the products fit.
				if d := max(size[h.other], 1); v < 0 || size[u]*den < num*d {
					v, num, den = h.edge, size[u], d
				}
			}
			if v < 0 {
				continue
			}
			if c := num*bestDen - bestNum*den; best < 0 || c < 0 || c == 0 && edges > bestEdges {
				best, bestVia, bestEdges, bestNum, bestDen = u, v, edges, num, den
			}
		}
		if best < 0 {
			panic("match: disconnected pattern in rank")
		}
		order[i], via[i], placed[best] = best, bestVia, true
	}
}

// buildOrder derives the per-step work of a matching order from the order
// and its anchor edges (rank's output): each position's anchor, the other
// edges into the prefix it checks once bound, and its rivals.
func buildOrder(p *core.Pattern, order, via []int) matchOrder {
	n := len(order)
	mo := matchOrder{
		order:   slices.Clone(order),
		anchors: make([]anchorInfo, n),
		checks:  make([][]int, n),
		// Candidate sets are label-exact, so only an earlier node with the
		// same label can already hold the image a later one is offered.
		rivals: make([][]int, n),
	}
	pos := make([]int, len(p.Nodes))
	for i, u := range order {
		pos[u] = i
	}
	for i, u := range order {
		for _, r := range order[:i] {
			if p.Nodes[r].Label == p.Nodes[u].Label {
				mo.rivals[i] = append(mo.rivals[i], r)
			}
		}
		if i == 0 {
			continue
		}
		if e := p.Edges[via[i]]; e.From == u {
			mo.anchors[i] = anchorInfo{at: e.To, edge: via[i], out: false} // u is the source; matched node is target
		} else {
			mo.anchors[i] = anchorInfo{at: e.From, edge: via[i], out: true} // matched node is the source
		}
		for ei, e := range p.Edges {
			if ei != via[i] && (e.From == u && pos[e.To] < i || e.To == u && pos[e.From] < i) {
				mo.checks[i] = append(mo.checks[i], ei)
			}
		}
	}
	return mo
}

// follows reports whether mo is the order that order and via describe.
func (mo *matchOrder) follows(order, via []int) bool {
	for i, u := range order {
		if mo.order[i] != u || i > 0 && mo.anchors[i].edge != via[i] {
			return false
		}
	}
	return true
}
