package match

import "repro/internal/graph"

// realizedKey identifies the pair (pattern edge, image of its source).
type realizedKey struct {
	edge int
	v    graph.NodeID
}

// witnesses collects, for one focus candidate vx, the children realized
// per (quantified edge, image of its source): Me(vx, h(u), Q) of §2.2.
// It is a fresh map of sets per candidate — the largest remaining share of
// matchFocus. The reusable open-addressing table meant to replace it
// (same add/count) is not built yet: see ROADMAP item 4.
type witnesses map[realizedKey]map[graph.NodeID]struct{}

// add records w as a realized child of v over pattern edge ei.
func (ws witnesses) add(ei int, v, w graph.NodeID) {
	k := realizedKey{ei, v}
	s := ws[k]
	if s == nil {
		s = make(map[graph.NodeID]struct{})
		ws[k] = s
	}
	s[w] = struct{}{}
}

// count returns |Me(vx, v, Q)| over pattern edge ei.
func (ws witnesses) count(ei int, v graph.NodeID) int {
	return len(ws[realizedKey{ei, v}])
}

// evalPositive computes the focus matches of a bound positive pattern.
//
// Semantics (§2.2, flat counting): vx matches iff there is a stratified
// isomorphism h0 with h0(xo) = vx such that for every edge e = (u, u′),
// |Me(vx, h0(u), Q)| satisfies f(e), where Me collects the distinct
// children of h0(u) realized by ANY stratified isomorphism anchored at vx.
// Counting therefore runs over the stratified-sound candidate sets
// (pr.cand); only acceptance may use the threshold-filtered sets.
//
// restrict, when non-nil, limits the focus candidates (used by IncQMatch
// and by fragment sessions). earlyAccept enables QMatch's early
// termination: once some isomorphism's images all meet their (monotone)
// thresholds, vx is accepted without exhausting the search.
func evalPositive(pr *program, restrict []graph.NodeID, earlyAccept bool, m *Metrics) []graph.NodeID {
	early := earlyAccept && !pr.hasEQ
	var answers []graph.NodeID
	pr.eachFocus(restrict, func(vx graph.NodeID) bool {
		m.FocusCandidates++
		if pr.matchFocus(vx, early, m) {
			answers = append(answers, vx)
		}
		return !pr.budgetExceeded
	})
	if pr.budgetExceeded {
		return nil
	}
	return answers
}

// eachFocus visits accept[focus] ∩ restrict in ascending order, stopping
// when visit returns false: the restriction's list, when there is one,
// each id a membership test — a scoped re-verification walks its handful
// of nodes, not a set over every node — and accept[focus] otherwise.
func (pr *program) eachFocus(restrict []graph.NodeID, visit func(vx graph.NodeID) bool) {
	accept := pr.accept[pr.p.Focus]
	if restrict == nil {
		accept.ForEach(func(vi int) bool { return visit(graph.NodeID(vi)) })
		return
	}
	for _, v := range restrict {
		if accept.Contains(int(v)) && !visit(v) {
			return
		}
	}
}

// matchFocus decides whether vx is a match of the focus; early allows
// acceptance before the counting search is exhausted.
func (pr *program) matchFocus(vx graph.NodeID, early bool, m *Metrics) bool {
	found := false
	stopAtFirst := func([]graph.NodeID) bool {
		found = true
		return false
	}
	if len(pr.quant) == 0 {
		// Conventional pattern: existence of one isomorphism suffices.
		pr.run(vx, pr.accept, nil, false, m, stopAtFirst)
		return found
	}

	realized := make(witnesses)
	foundAny := false
	accepted := false
	pr.run(vx, pr.cand, nil, early, m, func(assign []graph.NodeID) bool {
		foundAny = true
		pr.countImages(realized, assign)
		if early && pr.imagesSatisfied(realized, assign) {
			accepted = true
			m.EarlyAccepts++
			return false
		}
		return true
	})
	if accepted {
		return true
	}
	if !foundAny {
		return false
	}

	// Counts are now exact. Search for one isomorphism whose images are all
	// count-valid, pruning candidates through the per-node count filter.
	m.AcceptSearches++
	if !pr.countOK(realized, pr.p.Focus, vx) {
		return false
	}
	pr.run(vx, pr.accept, realized, false, m, stopAtFirst)
	return found
}

// countImages records one isomorphism's witnesses: for every quantified
// edge (u, u′), h(u′) is a realized child of h(u).
func (pr *program) countImages(realized witnesses, assign []graph.NodeID) {
	for _, ei := range pr.quant {
		e := pr.p.Edges[ei]
		realized.add(ei, assign[e.From], assign[e.To])
	}
}

// countOK reports whether w, as the image of u, satisfies every quantified
// out-edge of u under the (exact) counts.
func (pr *program) countOK(exact witnesses, u int, w graph.NodeID) bool {
	for _, ei := range pr.quantOut[u] {
		total := pr.g.CountOut(w, pr.edgeLabel[ei])
		if !pr.p.Edges[ei].Q.Satisfied(exact.count(ei, w), total) {
			return false
		}
	}
	return true
}

// imagesSatisfied reports whether every image of the current isomorphism
// already meets its quantifier with the (monotonically growing) counts.
// Only sound for GE and universal-EQ quantifiers; for the latter the need
// is the total, which a count of distinct children cannot overshoot, so
// reaching it is equality.
func (pr *program) imagesSatisfied(realized witnesses, assign []graph.NodeID) bool {
	for _, ei := range pr.quant {
		if realized.count(ei, assign[pr.p.Edges[ei].From]) < pr.need[ei] {
			return false
		}
	}
	return true
}
