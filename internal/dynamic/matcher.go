package dynamic

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
)

// Matcher maintains the answer set Q(xo, G) of one pattern under graph
// updates. A pattern whose Π(Q) and every Π(Q+e) are countable keeps
// per-node counts that each batch's edits move, and re-judges from them,
// with no search, the focus candidates whose counts moved. Any other
// pattern re-verifies by a search the focus candidates its reach plan says
// the batch can have flipped. Either way every other cached answer is
// reused.
type Matcher struct {
	// bound is the pattern bound to the graph when it re-verifies by a
	// search, held by the matcher's maker: the initial evaluation builds
	// its sets, each batch advances them by its touched nodes, and every
	// search is a QMatch Run of it. Nil when counts is not.
	bound *match.Bound
	plan  *ReachPlan
	// counts holds Π(Q), then Π(Q+e) per negated edge, when all of them are
	// countable; nil otherwise, and then every batch searches.
	counts []*counts
	hops   int
	g      *graph.Graph
	ans    map[graph.NodeID]bool
	// restrict, when non-nil, limits the maintained answer set to these
	// focus candidates (a cluster worker answers only for the nodes it
	// owns); nil means every node is a candidate. An Engine's matchers
	// all share the engine's one set.
	restrict *focusSet
	// union and kept are candidates' storage, reused from batch to batch:
	// the union of the counts' re-judged nodes, and those of them the
	// restriction keeps.
	union, kept []graph.NodeID
}

// Delta reports how an update batch changed the answer set.
type Delta struct {
	Added   []graph.NodeID
	Removed []graph.NodeID
	// Affected is the number of focus candidates re-judged for this batch:
	// those the counts re-judged, or those the reach plan had searched.
	Affected int
}

// NewMatcher evaluates q over g once and caches the answers.
func NewMatcher(g *graph.Graph, q *core.Pattern) (*Matcher, error) {
	return newMatcher(g, q, nil, func(prep *match.Prepared) *match.Bound { return prep.Bind(g) })
}

// newMatcher is NewMatcher limited to the focus candidates of restrict
// when that is non-nil: only their membership is evaluated and maintained.
// A cluster worker's Engine answers exactly for the fragment nodes it owns
// this way — non-owned nodes of a d-hop-preserving fragment may lack part
// of their neighborhood, so their local answers would be wrong anyway. The
// counts, though, cover every node of g: an owned node's verdict reads its
// neighbours'. A searched pattern runs over the Bound that bound hands out.
func newMatcher(g *graph.Graph, q *core.Pattern, restrict *focusSet, bound func(*match.Prepared) *match.Bound) (*Matcher, error) {
	prep, err := match.Prepare(q)
	if err != nil {
		return nil, err
	}
	m := &Matcher{plan: NewReachPlan(q), counts: countsOf(q), hops: core.RequiredHops(q), g: g, restrict: restrict, ans: make(map[graph.NodeID]bool)}
	var cands []graph.NodeID
	if restrict != nil {
		// ids is never nil: a fragment owning nothing asks about nobody
		// until Engine.Assign extends it.
		cands = restrict.ids
	}
	if m.counts != nil {
		for _, c := range m.counts {
			c.build(g)
		}
		if cands == nil {
			cands = g.NodesByLabelName(q.Nodes[q.Focus].Label)
		}
		for _, v := range cands {
			if m.answers(v) {
				m.ans[v] = true
			}
		}
		return m, nil
	}
	m.bound = bound(prep)
	res, err := m.bound.Run(match.EngineQMatch, &match.Options{FocusRestrict: cands})
	if err != nil {
		return nil, err
	}
	for _, v := range res.Matches {
		m.ans[v] = true
	}
	return m, nil
}

// countsOf returns the counts of Π(Q) and of each Π(Q+e), or nil when one
// of them is not countable.
func countsOf(q *core.Pattern) []*counts {
	pi, _ := q.Pi()
	cs := []*counts{newCounts(pi)}
	for _, ei := range q.NegatedEdges() {
		pp, _ := q.PiPlus(ei)
		cs = append(cs, newCounts(pp))
	}
	if slices.Contains(cs, nil) {
		return nil
	}
	return cs
}

// Graph returns the matcher's current graph version.
func (m *Matcher) Graph() *graph.Graph { return m.g }

// Hops returns the pattern's required hops d: the radius of the ball
// (AffectedWithin) that bounds the reach plan's affected sets.
func (m *Matcher) Hops() int { return m.hops }

// Answers returns the current answer set, sorted.
func (m *Matcher) Answers() []graph.NodeID {
	return sortedNodeSet(m.ans)
}

// ApplyShared maintains the answers for a batch the caller already
// applied: old, newG and touched are Versioned.Apply's pre-batch view, live
// graph and touched set, and the matcher must have seen every earlier
// batch. newG is the graph the matcher was made over: a Versioned's live
// graph, which every batch edits in place. A holder of several matchers
// over one graph (a server session with many standing watches) applies the
// batch once and shares the result, instead of applying it per watch.
func (m *Matcher) ApplyShared(old *graph.OldView, newG *graph.Graph, touched []graph.NodeID) (Delta, error) {
	return m.verify(newG, m.candidates(old, newG, touched, old.Edits()))
}

// candidates returns the owned focus candidates a batch can have flipped,
// ascending, in a slice that is good until the next call. A counted pattern
// carries its counts over the batch's net edits (old.Edits(), which a
// holder of several matchers reads once for all of them) and names what
// they re-judged; any other carries its Bound's sets over touched and walks
// its reach plan from the same edits.
func (m *Matcher) candidates(old *graph.OldView, newG *graph.Graph, touched []graph.NodeID, edits []graph.EdgeEdit) []graph.NodeID {
	if m.counts == nil {
		m.bound.Advance(touched)
		return m.filter(m.plan.Affected(old, newG, edits))
	}
	born := graph.NodeID(old.NumNodes())
	judged := m.counts[0].advance(newG, edits, born)
	if len(m.counts) > 1 {
		union := append(m.union[:0], judged...)
		for _, c := range m.counts[1:] {
			union = append(union, c.advance(newG, edits, born)...)
		}
		slices.Sort(union)
		judged = slices.Compact(union)
		m.union = judged
	}
	return m.filter(judged)
}

// filter returns the members of the restriction among vs, in order: vs
// itself when there is none, else the matcher's kept storage.
func (m *Matcher) filter(vs []graph.NodeID) []graph.NodeID {
	if m.restrict == nil {
		return vs
	}
	m.kept = m.restrict.appendMembers(m.kept[:0], vs)
	return m.kept
}

// verify re-judges the candidates (already within the restriction) over
// newG and splices the verdicts into the cached answer set, committing newG
// as the matcher's graph: from the counts, which the caller has carried to
// newG, or by a search restricted to the candidates.
func (m *Matcher) verify(newG *graph.Graph, cands []graph.NodeID) (Delta, error) {
	answers := m.answers
	if m.counts == nil && len(cands) > 0 {
		res, err := m.bound.Run(match.EngineQMatch, &match.Options{FocusRestrict: cands})
		if err != nil {
			return Delta{}, err
		}
		now := make(map[graph.NodeID]bool, len(res.Matches))
		for _, v := range res.Matches {
			now[v] = true
		}
		answers = func(v graph.NodeID) bool { return now[v] }
	}
	d := Delta{Affected: len(cands)}
	for _, v := range cands {
		switch is, was := answers(v), m.ans[v]; {
		case is && !was:
			m.ans[v] = true
			d.Added = append(d.Added, v)
		case !is && was:
			delete(m.ans, v)
			d.Removed = append(d.Removed, v)
		}
	}
	m.g = newG
	slices.Sort(d.Added)
	slices.Sort(d.Removed)
	return d, nil
}

// answers reports whether the counts say v answers Q: it matches Π(Q) and
// no Π(Q+e).
func (m *Matcher) answers(v graph.NodeID) bool {
	for i, c := range m.counts {
		if (c.state[c.p.Focus][v]&valid != 0) != (i == 0) {
			return false
		}
	}
	return true
}

func sortedNodeSet(m map[graph.NodeID]bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// focusSet is a restriction's candidate set: one bitset for membership
// tests plus the ascending id list evaluations and stats read — never nil,
// so as a match.Options.FocusRestrict an empty set means nobody. It only
// grows — assignment inserts, nothing is rebuilt.
type focusSet struct {
	bits *bitset.Set
	ids  []graph.NodeID
}

func newFocusSet(g *graph.Graph, vs []graph.NodeID) (*focusSet, error) {
	s := &focusSet{bits: bitset.New(g.NumNodes()), ids: []graph.NodeID{}}
	_, err := s.add(g, vs)
	return s, err
}

// add inserts the nodes of g among vs that are not yet members and
// returns them; a node outside g is an error and adds nothing.
func (s *focusSet) add(g *graph.Graph, vs []graph.NodeID) (fresh []graph.NodeID, err error) {
	for _, v := range vs {
		if v < 0 || int(v) >= g.NumNodes() {
			return nil, fmt.Errorf("dynamic: focus node %d outside [0, %d)", v, g.NumNodes())
		}
	}
	s.bits.Grow(g.NumNodes())
	for _, v := range vs {
		if s.bits.Contains(int(v)) {
			continue
		}
		s.bits.Add(int(v))
		i, _ := slices.BinarySearch(s.ids, v)
		s.ids = slices.Insert(s.ids, i, v)
		fresh = append(fresh, v)
	}
	return fresh, nil
}

// appendMembers appends the members among vs to dst, in order.
func (s *focusSet) appendMembers(dst, vs []graph.NodeID) []graph.NodeID {
	for _, v := range vs {
		if int(v) < s.bits.Len() && s.bits.Contains(int(v)) {
			dst = append(dst, v)
		}
	}
	return dst
}
