package dynamic

import (
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/obs"
)

// An Engine is also its session's one store of match.Bounds, keyed by
// pattern text like its watch groups: a pattern's candidate and acceptance
// sets — O(|Q|·|G|) to build, and dependent on nothing but the pattern and
// the graph — are built once per graph version and shared by every engine
// a read runs and by the pattern's searched watch. Every Bound follows the
// graph by one rule: whoever reads it next (a lookup here, or the watch's
// search) advances it over what the graph logged since its version, and
// rebuilds it where the log does not reach. A searched watch pins its
// Bound; past maxBounds the least recently read unpinned one goes. The
// cap is a constant: nothing here is worth a knob.
const maxBounds = 64

// entry is one pattern the session watches or has read.
type entry struct {
	b    *match.Bound // nil until a lookup binds it
	used uint64       // the store's clock at the last lookup
	gr   *group       // nil unless some name watches the pattern
}

// pinned reports whether a searched watch holds the entry's bound: the cap
// leaves it alone.
func (en *entry) pinned() bool { return en.gr != nil && en.gr.m.counts == nil }

// boundStore is what the store keeps beside the entries.
type boundStore struct {
	outcome  [3]*obs.Counter // per match.Outcome; nil ones count nothing
	live     *obs.Gauge      // bounds held
	clock    uint64          // ticks per lookup, for least-recently-used eviction
	unpinned int             // entries holding a bound no watch pins
}

// newBoundStore names the store's instruments in reg as servers export
// them; a nil reg records nothing.
func newBoundStore(reg *obs.Registry) boundStore {
	if reg == nil {
		return boundStore{}
	}
	return boundStore{
		outcome: [3]*obs.Counter{
			match.Hit:      reg.Counter("server.match.bound_hit"),
			match.Repaired: reg.Counter("server.match.bound_repaired"),
			match.Built:    reg.Counter("server.match.bound_built"),
		},
		live: reg.Gauge("server.match.bounds_live"),
	}
}

// Bound returns the session's bound for the pattern of the given text,
// advanced to the graph's current version, and counts what it took. The
// store keys a pattern by its canonical text, as Watch does, so a text is
// parsed only when no bound is held under it as it stands: one that is not
// canonical finds its pattern's bound after the parse.
func (e *Engine) Bound(text string) (*match.Bound, error) {
	en := e.patterns[text]
	var prep *match.Prepared
	if en == nil || en.b == nil {
		q, err := core.Parse(text)
		if err != nil {
			return nil, err
		}
		text = q.String()
		if en = e.patterns[text]; en == nil || en.b == nil {
			if prep, err = match.Prepare(q); err != nil {
				return nil, err
			}
		}
		if en == nil {
			en = &entry{}
			e.patterns[text] = en
		}
	}
	return e.lookup(en, prep, false), nil
}

// lookup returns en's bound — bound afresh from prep when en holds none,
// unpinned unless pin says the caller is a searched watch about to pin it —
// advanced to the graph's version, and counts what it took.
func (e *Engine) lookup(en *entry, prep *match.Prepared, pin bool) *match.Bound {
	s := &e.store
	s.clock++
	en.used = s.clock
	outcome := match.Built
	if en.b == nil {
		en.b = prep.Bind(e.g)
		s.live.Add(1)
		if !pin {
			e.unpin(en)
		}
	} else {
		outcome = en.b.Advance()
	}
	s.outcome[outcome].Inc()
	return en.b
}

// unpin hands en's bound to the cap: it was just bound, or the watch that
// pinned it is gone. Past the cap the least recently read unpinned bound
// goes.
func (e *Engine) unpin(en *entry) {
	s := &e.store
	if s.unpinned++; s.unpinned <= maxBounds {
		return
	}
	var oldest string
	for text, c := range e.patterns {
		if c.b != nil && !c.pinned() && (oldest == "" || c.used < e.patterns[oldest].used) {
			oldest = text
		}
	}
	if victim := e.patterns[oldest]; victim.gr == nil {
		delete(e.patterns, oldest)
	} else {
		victim.b = nil
	}
	s.unpinned--
	s.live.Add(-1)
}

// Close gives the store's bounds back to its gauge, which outlives the
// engine: the graph was replaced, or the session is over. Nil does
// nothing.
func (e *Engine) Close() {
	if e == nil {
		return
	}
	for _, en := range e.patterns {
		if en.b != nil {
			e.store.live.Add(-1)
		}
	}
	clear(e.patterns)
}
