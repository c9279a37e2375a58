package dynamic

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/obs"
)

// Engine holds every standing watch of one session over one graph, and
// the session's one store of match.Bounds (bounds.go). Watches are grouped
// by canonical pattern text: each distinct pattern is maintained by one
// Matcher and evaluated once per batch, and its delta is reported under
// every name subscribed to it — per-batch work follows the distinct
// patterns and the candidates a batch can flip, not the number of names.
// On a fragment session the engine also holds the one owned set every
// group's evaluation and every read is restricted to.
type Engine struct {
	g        *graph.Graph
	owned    *focusSet         // nil: unrestricted
	patterns map[string]*entry // by pattern text: every pattern watched or read
	byName   map[string]*group
	names    []string     // subscribed names, ascending
	out      []NamedDelta // run's result, reused by the next run
	store    boundStore
}

// group is one distinct pattern and the number of names subscribed to it.
type group struct {
	pattern string
	m       *Matcher
	refs    int
	last    NamedDelta // the current batch's result, fanned out per name
}

// NamedDelta is one watch's share of a batch: its group's delta under the
// watch's name. Names subscribed to one pattern share the Delta's slices.
type NamedDelta struct {
	Name string
	Delta
}

// NewEngine returns an engine with no watches and no bounds over g, whose
// store counts into reg (nil: nowhere). A non-nil owned (even empty) makes
// it a fragment's engine: only those candidates are evaluated and
// maintained, and Assign extends them.
func NewEngine(g *graph.Graph, owned []graph.NodeID, reg *obs.Registry) (*Engine, error) {
	e := &Engine{g: g, patterns: make(map[string]*entry), byName: make(map[string]*group), store: newBoundStore(reg)}
	if owned != nil {
		var err error
		if e.owned, err = newFocusSet(g, owned); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Names returns the number of registered watch names.
func (e *Engine) Names() int { return len(e.names) }

// Restricted reports whether the engine is a fragment's: evaluation is
// limited to an owned set.
func (e *Engine) Restricted() bool { return e.owned != nil }

// Owned returns the fragment's owned candidates, ascending: nil on an
// unrestricted engine, non-nil and empty on a fragment that owns nothing —
// match.Options.FocusRestrict's convention, so the result is passed to it as
// it stands. The slice is the engine's own: read, do not keep.
func (e *Engine) Owned() []graph.NodeID {
	if e.owned == nil {
		return nil
	}
	return e.owned.ids
}

// Watch registers q under name and returns its current answers. A pattern
// some other name already holds joins that group without an evaluation. A
// pattern that is not countable searches over the store's Bound of its
// text, which the watch pins: a read of the same text shares its sets.
func (e *Engine) Watch(name string, q *core.Pattern) ([]graph.NodeID, error) {
	if _, dup := e.byName[name]; dup {
		return nil, fmt.Errorf("watch %q already registered", name)
	}
	pattern := q.String()
	en := e.patterns[pattern]
	if en == nil {
		en = &entry{}
		e.patterns[pattern] = en
	}
	gr := en.gr
	if gr == nil {
		// A bound held before the watch is a read's, unpinned; one the
		// watch binds is pinned from the start, so the cap on unpinned
		// bounds never evicts a read's to make room for it.
		read := en.b != nil
		m, err := newMatcher(e.g, q, e.owned, func(prep *match.Prepared) *match.Bound { return e.lookup(en, prep, true) })
		if err != nil {
			switch {
			case en.b == nil:
				delete(e.patterns, pattern)
			case !read:
				e.unpin(en) // bound for a watch that failed: a read may still want it
			}
			return nil, err
		}
		gr = &group{pattern: pattern, m: m}
		if en.gr = gr; en.pinned() && read {
			e.store.unpinned--
		}
	}
	gr.refs++
	e.byName[name] = gr
	i, _ := slices.BinarySearch(e.names, name)
	e.names = slices.Insert(e.names, i, name)
	return gr.m.Answers(), nil
}

// Unwatch removes name; the last name of a pattern frees its group.
func (e *Engine) Unwatch(name string) error {
	gr, ok := e.byName[name]
	if !ok {
		return fmt.Errorf("no watch named %q", name)
	}
	delete(e.byName, name)
	i, _ := slices.BinarySearch(e.names, name)
	e.names = slices.Delete(e.names, i, i+1)
	if gr.refs--; gr.refs == 0 {
		en := e.patterns[gr.pattern]
		pinned := en.pinned()
		en.gr = nil
		switch {
		case pinned:
			e.unpin(en) // a read may still want the sets; the cap decides
		case en.b == nil:
			delete(e.patterns, gr.pattern)
		}
	}
	return nil
}

// Apply maintains every group for a batch the caller already applied (old
// and newG as for Matcher.ApplyShared) and returns one delta per name,
// ascending. The batch's edits are read once for all groups; each
// group then re-judges the owned candidates Matcher.candidates names. A
// fragment's engine needs nothing else: its graph holds every owned
// candidate's neighbourhood, so its own walk finds what the batch can flip.
// tr, when traced, gets two spans per group evaluated, in group order:
// dynamic.affected (finding the candidates) and dynamic.verify
// (re-judging them). The returned slice is the engine's, good until its
// next Apply or Assign; the deltas' node lists are the caller's.
func (e *Engine) Apply(old *graph.OldView, newG *graph.Graph, tr *obs.Trace) ([]NamedDelta, error) {
	e.g = newG
	edits := old.Edits()
	return e.run(func(m *Matcher) []graph.NodeID { return m.candidates(old, newG, edits) }, tr)
}

// Assign extends a fragment engine's owned set and returns, per name, the
// answers the new candidates contribute; tr and the result as for Apply.
func (e *Engine) Assign(add []graph.NodeID, tr *obs.Trace) ([]NamedDelta, error) {
	if e.owned == nil {
		return nil, fmt.Errorf("dynamic: Assign on an unrestricted engine")
	}
	fresh, err := e.owned.add(e.g, add)
	if err != nil {
		return nil, err
	}
	return e.run(func(*Matcher) []graph.NodeID { return fresh }, tr)
}

// run evaluates every group once over the engine's graph — scope picks
// the group's candidates, all within the owned set — and fans the results
// out per name.
func (e *Engine) run(scope func(*Matcher) []graph.NodeID, tr *obs.Trace) ([]NamedDelta, error) {
	for _, en := range e.patterns {
		gr := en.gr
		if gr == nil {
			continue
		}
		t0 := tr.Now()
		cands := scope(gr.m)
		t1 := tr.Now()
		tr.Nest(-1, "dynamic.affected", t0, t1.Sub(t0), nil)
		d, err := gr.m.verify(e.g, cands)
		if err != nil {
			return nil, fmt.Errorf("watch pattern %q: %w", gr.pattern, err)
		}
		tr.Span(-1, "dynamic.verify", t1)
		gr.last = NamedDelta{Delta: d}
	}
	out := e.out[:0]
	for _, name := range e.names {
		nd := e.byName[name].last
		nd.Name = name
		out = append(out, nd)
	}
	e.out = out
	return out, nil
}
