package match

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// Metrics records the work performed by an evaluation. The paper measures
// algorithms by their number of verifications (complete-isomorphism
// checks); Extensions counts candidate extension attempts (IsExtend calls
// in the generic Match of Fig. 4).
type Metrics struct {
	FocusCandidates int   // |C(xo)| after filtering
	Verifications   int   // complete isomorphisms inspected (Verify calls)
	Extensions      int64 // candidate extension attempts
	EarlyAccepts    int   // focus candidates accepted before exhaustive search
	AcceptSearches  int   // phase-2 acceptance searches (EQ quantifiers)
	IncRuns         int   // IncQMatch invocations (one per negated edge)
	IncCandidates   int   // focus candidates re-examined by IncQMatch
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.FocusCandidates += other.FocusCandidates
	m.Verifications += other.Verifications
	m.Extensions += other.Extensions
	m.EarlyAccepts += other.EarlyAccepts
	m.AcceptSearches += other.AcceptSearches
	m.IncRuns += other.IncRuns
	m.IncCandidates += other.IncCandidates
}

// run enumerates isomorphisms of the bound pattern with the focus bound
// to vx, over the candidate sets in sets (one bitset per pattern node:
// pr.cand or pr.accept).
// With exact non-nil, a node additionally binds only to images whose
// finished child counts satisfy its quantified out-edges — the acceptance
// search over a completed count. With early set (a counting search that
// may accept before it is exhausted), every binding also fixes the
// thresholds imagesSatisfied compares against. onIso is invoked for every
// complete isomorphism; returning false stops the enumeration.
//
// The assignment passed to onIso is indexed by pattern node; it is reused
// across calls and must not be retained.
func (pr *program) run(vx graph.NodeID, sets []*bitset.Set, exact witnesses, early bool, m *Metrics, onIso func(assign []graph.NodeID) bool) {
	pr.bind(pr.p.Focus, vx, early)
	pr.extend(1, sets, exact, early, m, onIso)
}

// bind assigns w to pattern node u. With early set it also fixes, once
// per binding instead of once per verification, the count each quantified
// out-edge of u must reach at w (noNeed when the quantifier is
// unsatisfiable there).
func (pr *program) bind(u int, w graph.NodeID, early bool) {
	pr.assign[u] = w
	if !early {
		return
	}
	for _, ei := range pr.quantOut[u] {
		need, ok := pr.p.Edges[ei].Q.Threshold(pr.g.CountOut(w, pr.edgeLabel[ei]))
		if !ok {
			need = noNeed
		}
		pr.need[ei] = need
	}
}

// noNeed is a threshold no count reaches.
const noNeed = math.MaxInt

// extend binds the pattern node at position i of the matching order to
// every admissible child (or parent) of its anchor and recurses; it
// reports whether the enumeration should continue.
func (pr *program) extend(i int, sets []*bitset.Set, exact witnesses, early bool, m *Metrics, onIso func(assign []graph.NodeID) bool) bool {
	if i == len(pr.order) {
		m.Verifications++
		return onIso(pr.assign)
	}
	u := pr.order[i]
	a := pr.anchors[i]
	var edges []graph.Edge
	if a.out {
		edges = pr.g.OutByLabel(pr.assign[a.at], pr.edgeLabel[a.edge])
	} else {
		edges = pr.g.InByLabel(pr.assign[a.at], pr.edgeLabel[a.edge])
	}
	set := sets[u]
next:
	for _, ge := range edges {
		w := ge.To
		m.Extensions++
		if pr.budget > 0 && m.Extensions > pr.budget {
			pr.budgetExceeded = true
			return false
		}
		if !set.Contains(int(w)) {
			continue
		}
		// Injectivity: only an earlier node with u's label can hold w.
		for _, r := range pr.rivals[i] {
			if pr.assign[r] == w {
				continue next
			}
		}
		if exact != nil && !pr.countOK(exact, u, w) {
			continue
		}
		if !pr.checkBoundEdges(i, u, w) {
			continue
		}
		pr.bind(u, w, early)
		if !pr.extend(i+1, sets, exact, early, m, onIso) {
			return false
		}
	}
	return true
}

// checkBoundEdges verifies the pattern edges that become fully bound when
// node u is assigned w.
func (pr *program) checkBoundEdges(i, u int, w graph.NodeID) bool {
	for _, ei := range pr.checks[i] {
		e := pr.p.Edges[ei]
		l := pr.edgeLabel[ei]
		var from, to graph.NodeID
		if e.From == u {
			from, to = w, pr.assign[e.To]
		} else {
			from, to = pr.assign[e.From], w
		}
		if !pr.g.HasEdge(from, to, l) {
			return false
		}
	}
	return true
}
