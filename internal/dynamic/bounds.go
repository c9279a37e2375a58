package dynamic

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/obs"
)

// An Engine is also its session's one store of match.Bounds, keyed by
// pattern text like its watch groups: a pattern's candidate and acceptance
// sets — O(|Q|·|G|) to build, and dependent on nothing but the pattern and
// the graph — are built once per graph version and shared by every engine
// a read runs and by the pattern's searched watch. A searched watch pins
// its Bound and its batches advance it; any other Bound is advanced, when
// next read, by the touched nodes of the batches in between. Both sizes
// are constants: nothing here is worth a knob.
const (
	// maxBounds caps the unpinned bounds a session keeps; past it the least
	// recently read one goes.
	maxBounds = 64
	// touchLogShare caps the touched ids a session logs at |V|/8: a bound
	// that far behind would re-check every logged id under every pattern
	// node, nearing the O(|Q|·|G|) build the repair saves, while the log
	// holds the ids in memory. A bound further behind than the log
	// reaches rebuilds.
	touchLogShare = 8
)

// What a lookup found: a bound valid at the graph's version, an older one
// advanced over the logged batches, or none — or one the log could not
// carry, which its next Run rebinds.
const (
	hit = iota
	repaired
	built
)

// entry is one pattern the session watches or has read.
type entry struct {
	b    *match.Bound // nil until a lookup binds it
	used uint64       // the store's clock at the last lookup
	gr   *group       // nil unless some name watches the pattern
}

// pinned reports whether a searched watch holds the entry's bound: its
// batches advance it, and the log and the cap leave it alone.
func (en *entry) pinned() bool { return en.gr != nil && en.gr.m.counts == nil }

// boundStore is what the store keeps beside the entries.
type boundStore struct {
	outcome  [3]*obs.Counter // per lookup outcome; nil ones count nothing
	live     *obs.Gauge      // bounds held
	clock    uint64          // ticks per lookup, for least-recently-used eviction
	unpinned int             // entries holding a bound no watch pins

	// log holds the touched sets of the batches applied since version
	// logFrom, oldest first, and only while some unpinned bound is live: a
	// bound valid at version v ≥ logFrom is carried to the present by the
	// batches logged after v.
	log     []touchedBatch
	logged  int // ids in log
	logFrom graph.Version
}

type touchedBatch struct {
	version graph.Version // the version the batch produced
	touched []graph.NodeID
}

// newBoundStore names the store's instruments in reg as servers export
// them; a nil reg records nothing.
func newBoundStore(reg *obs.Registry) boundStore {
	if reg == nil {
		return boundStore{}
	}
	return boundStore{
		outcome: [3]*obs.Counter{
			hit:      reg.Counter("server.match.bound_hit"),
			repaired: reg.Counter("server.match.bound_repaired"),
			built:    reg.Counter("server.match.bound_built"),
		},
		live: reg.Gauge("server.match.bounds_live"),
	}
}

// Bound returns the session's bound for the pattern of the given text,
// valid at the graph's current version whenever the log allows, and counts
// what it took. The store keys a pattern by its canonical text, as Watch
// does, so a text is parsed only when no bound is held under it as it
// stands: one that is not canonical finds its pattern's bound after the
// parse.
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
// valid at the graph's version where the log reaches, and counts what it
// took. A bound the log cannot carry is returned as it is.
func (e *Engine) lookup(en *entry, prep *match.Prepared, pin bool) *match.Bound {
	s := &e.store
	s.clock++
	en.used = s.clock
	outcome := built
	switch {
	case en.b == nil:
		en.b = prep.Bind(e.g)
		s.live.Add(1)
		if !pin {
			e.unpin(en)
		}
	case en.b.Version() == e.g.Version():
		outcome = hit
	case !en.pinned():
		if touched, ok := e.touchedSince(en.b.Version()); ok && en.b.Advance(touched) {
			outcome = repaired
		}
	}
	s.outcome[outcome].Inc()
	return en.b
}

// unpin hands en's bound to the log and the cap: it was just bound, or the
// watch that pinned it is gone. Past the cap the least recently read
// unpinned bound goes.
func (e *Engine) unpin(en *entry) {
	s := &e.store
	if s.unpinned == 0 {
		e.BreakLog() // the log starts with the first unpinned bound
	}
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

// noteBatch logs a batch the graph just took. Past the cap the oldest
// batches go, and the bounds that needed them will rebuild.
func (e *Engine) noteBatch(touched []graph.NodeID) {
	s := &e.store
	if s.unpinned == 0 {
		return
	}
	s.log = append(s.log, touchedBatch{e.g.Version(), touched})
	s.logged += len(touched)
	for s.logged > e.g.NumNodes()/touchLogShare {
		s.logFrom = s.log[0].version
		s.logged -= len(s.log[0].touched)
		s.log = s.log[1:]
	}
}

// BreakLog cuts the log at the graph's current version: the graph moved
// in a way the log does not describe (a rolled-back batch), so no older
// unpinned bound can be advanced.
func (e *Engine) BreakLog() {
	e.store.log, e.store.logged, e.store.logFrom = nil, 0, e.g.Version()
}

// touchedSince returns what the batches after version v touched, and
// whether the log still reaches back to v.
func (e *Engine) touchedSince(v graph.Version) ([]graph.NodeID, bool) {
	if v < e.store.logFrom {
		return nil, false
	}
	var touched []graph.NodeID
	for _, batch := range e.store.log {
		if batch.version > v {
			touched = append(touched, batch.touched...)
		}
	}
	return touched, true
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
