package dynamic

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
)

// Matcher maintains the answer set Q(xo, G) of one pattern under graph
// updates. After each batch it re-verifies only the focus candidates the
// pattern's reach plan says the batch can have flipped and reuses every
// other cached answer.
type Matcher struct {
	// prep is the pattern prepared once; every evaluation, the initial one
	// and each batch's re-verification, is a Run of it over the graph's
	// current version.
	prep *match.Prepared
	plan *ReachPlan
	hops int
	g    *graph.Graph
	// vg is the matcher's private versioned core, adopted lazily on the
	// first self-applied batch (Apply clones the caller's graph so the
	// original is never mutated). Nil while the matcher only follows
	// externally applied batches via ApplyShared/ApplyScoped.
	vg  *graph.Versioned
	ans map[graph.NodeID]bool
	// restrict, when non-nil, limits the maintained answer set to these
	// focus candidates (a cluster worker answers only for the nodes it
	// owns); nil means every node is a candidate. An Engine's matchers
	// all share the engine's one set.
	restrict *focusSet

	// Verified counts the focus candidates re-verified by Apply calls —
	// the measurable saving over full recomputation.
	Verified int
}

// Delta reports how an update batch changed the answer set.
type Delta struct {
	Added   []graph.NodeID
	Removed []graph.NodeID
	// Affected is the number of focus candidates that had to be
	// re-verified for this batch.
	Affected int
}

// NewMatcher evaluates q over g once and caches the answers.
func NewMatcher(g *graph.Graph, q *core.Pattern) (*Matcher, error) {
	return newMatcher(g, q, nil)
}

// newMatcher is NewMatcher limited to the focus candidates of restrict
// when that is non-nil: only their membership is evaluated and maintained.
// A cluster worker's Engine answers exactly for the fragment nodes it owns
// this way — non-owned nodes of a d-hop-preserving fragment may lack part
// of their neighborhood, so their local answers would be wrong anyway.
func newMatcher(g *graph.Graph, q *core.Pattern, restrict *focusSet) (*Matcher, error) {
	prep, err := match.Prepare(q)
	if err != nil {
		return nil, err
	}
	m := &Matcher{prep: prep, plan: NewReachPlan(q), hops: core.RequiredHops(q), g: g, restrict: restrict, ans: make(map[graph.NodeID]bool)}
	var opts *match.Options
	if restrict != nil {
		// ids is never nil: a fragment owning nothing asks about nobody
		// until Engine.Assign extends it.
		opts = &match.Options{FocusRestrict: restrict.ids}
	}
	res, err := prep.Run(g, opts)
	if err != nil {
		return nil, err
	}
	for _, v := range res.Matches {
		m.ans[v] = true
	}
	return m, nil
}

// Graph returns the matcher's current graph version.
func (m *Matcher) Graph() *graph.Graph { return m.g }

// Hops returns the pattern's required hops d: the radius of the ball
// (AffectedWithin) that bounds the reach plan's affected sets.
func (m *Matcher) Hops() int { return m.hops }

// Answers returns the current answer set, sorted.
func (m *Matcher) Answers() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m.ans))
	for v := range m.ans {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Apply applies an update batch and incrementally maintains the answers:
// it evaluates the pattern restricted to the affected focus candidates and
// splices the result into the cached set. The returned delta lists the
// membership changes.
//
// The batch runs through a private versioned core: the first Apply
// clones the construction-time graph (so the caller's graph is never
// mutated) and every later batch edits that clone in place, costing
// |batch| + |affected candidates| instead of |G|.
func (m *Matcher) Apply(ups []graph.Mutation) (Delta, error) {
	if m.vg == nil || m.vg.Graph() != m.g {
		// Adopt (or re-adopt, after an interleaved ApplyShared moved the
		// matcher onto an external graph) a private versioned copy.
		m.vg = graph.NewVersioned(m.g.Clone())
		m.g = m.vg.Graph()
	}
	old, touched, err := m.vg.Apply(ups)
	if err != nil {
		return Delta{}, err
	}
	return m.ApplyShared(old, m.g, touched)
}

// ApplyShared maintains the answers for a batch the caller already
// applied: old is the pre-batch view, and newG and touched are the
// batch's results over the matcher's current graph (Versioned.Apply's
// OldView/touched, or dynamic.Apply's output with the pre-batch graph
// as old). A holder of several matchers over one graph (a server
// session with many standing watches) applies the batch once and
// shares the result, instead of applying it per watch.
func (m *Matcher) ApplyShared(old graph.View, newG *graph.Graph, touched []graph.NodeID) (Delta, error) {
	return m.ApplyScoped(newG, m.plan.Affected(old, newG, touched))
}

// ApplyScoped maintains the answers for a batch the caller already
// applied, re-verifying exactly the given candidates (intersected with
// the matcher's focus restriction). The caller must guarantee affected
// is a superset of the focus candidates the batch can have flipped — a
// cluster worker gets this set from the coordinator, which computes it
// once on the global graph, so the worker does not re-expand the batch
// locally (where fragment materialization traffic would inflate it).
func (m *Matcher) ApplyScoped(newG *graph.Graph, affected []graph.NodeID) (Delta, error) {
	return m.reverify(newG, m.restrict.filter(affected))
}

// reverify re-evaluates the given candidates (already within the
// restriction) over newG and splices the result into the cached answer
// set, committing newG as the matcher's graph.
func (m *Matcher) reverify(newG *graph.Graph, affected []graph.NodeID) (Delta, error) {
	var d Delta
	d.Affected = len(affected)
	m.Verified += len(affected)
	if len(affected) > 0 {
		res, err := m.prep.Run(newG, &match.Options{FocusRestrict: affected})
		if err != nil {
			return Delta{}, err
		}
		now := make(map[graph.NodeID]bool, len(res.Matches))
		for _, v := range res.Matches {
			now[v] = true
		}
		for _, v := range affected {
			was := m.ans[v]
			switch {
			case now[v] && !was:
				m.ans[v] = true
				d.Added = append(d.Added, v)
			case !now[v] && was:
				delete(m.ans, v)
				d.Removed = append(d.Removed, v)
			}
		}
	}
	m.g = newG
	sortNodeIDs(d.Added)
	sortNodeIDs(d.Removed)
	return d, nil
}

func sortNodeIDs(vs []graph.NodeID) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}

func sortedNodeSet(m map[graph.NodeID]bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sortNodeIDs(out)
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
		i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] > v })
		s.ids = append(s.ids, 0)
		copy(s.ids[i+1:], s.ids[i:])
		s.ids[i] = v
		fresh = append(fresh, v)
	}
	return fresh, nil
}

// filter returns the members among vs, in order; a nil set admits all.
func (s *focusSet) filter(vs []graph.NodeID) []graph.NodeID {
	if s == nil {
		return vs
	}
	kept := make([]graph.NodeID, 0, len(vs))
	for _, v := range vs {
		if int(v) < s.bits.Len() && s.bits.Contains(int(v)) {
			kept = append(kept, v)
		}
	}
	return kept
}
