package server

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/obs"
)

// A session binds a pattern once per graph version and repairs across
// versions: match requests for the same engine and pattern text share one
// match.Bound, whose candidate and acceptance sets — O(|Q|·|G|) to build,
// and dependent on nothing but the pattern and the graph — are built by the
// first request, read by the ones that follow on the same version, and
// advanced by the touched nodes of the batches in between when the graph
// has moved. Both sizes are constants: nothing here is worth a knob.
const (
	// maxBounds caps the bounds a session keeps; past it the least
	// recently used one goes.
	maxBounds = 64
	// touchLogShare caps the touched ids a session logs at |V|/8: a bound
	// that far behind would re-check every logged id under every pattern
	// node, nearing the O(|Q|·|G|) build the repair saves, while the log
	// holds the ids in memory. A bound further behind than the log
	// reaches rebuilds.
	touchLogShare = 8
)

// boundOutcome says what a match request found in the session's cache.
type boundOutcome int

const (
	boundHit      boundOutcome = iota // a bound valid at the graph's version
	boundRepaired                     // an older bound, advanced over the logged batches
	boundBuilt                        // no bound, or one the log could not carry forward
)

// boundMetrics are the cache's instruments; the zero value (no registry)
// records nothing.
type boundMetrics struct {
	outcome [3]*obs.Counter
	live    *obs.Gauge
}

func newBoundMetrics(reg *obs.Registry) boundMetrics {
	if reg == nil {
		return boundMetrics{}
	}
	return boundMetrics{
		outcome: [3]*obs.Counter{
			boundHit:      reg.Counter("server.match.bound_hit"),
			boundRepaired: reg.Counter("server.match.bound_repaired"),
			boundBuilt:    reg.Counter("server.match.bound_built"),
		},
		live: reg.Gauge("server.match.bounds_live"),
	}
}

// boundCache is a session's bounds and the log that advances them.
type boundCache struct {
	m     boundMetrics
	byKey map[string]*cachedBound
	clock uint64 // ticks per lookup, for least-recently-used eviction

	// log holds the touched sets of the batches applied since version
	// logFrom, oldest first, and only while some bound is live: a bound
	// valid at version v ≥ logFrom is carried to the present by the
	// batches logged after v.
	log     []touchedBatch
	logged  int // ids in log
	logFrom graph.Version
}

type cachedBound struct {
	b    *match.Bound
	used uint64
}

// touchedBatch is one applied batch: the version it produced and the nodes
// it touched.
type touchedBatch struct {
	version graph.Version
	touched []graph.NodeID
}

// reset forgets every bound and the log: the graph was replaced, or the
// session is over.
func (c *boundCache) reset() {
	c.m.live.Add(-int64(len(c.byKey)))
	*c = boundCache{m: c.m}
}

// noteBatch logs a batch g just took. Past the cap the oldest batches go,
// and the bounds that needed them will rebuild.
func (c *boundCache) noteBatch(g *graph.Graph, touched []graph.NodeID) {
	if len(c.byKey) == 0 {
		return
	}
	c.log = append(c.log, touchedBatch{g.Version(), touched})
	c.logged += len(touched)
	for c.logged > g.NumNodes()/touchLogShare {
		c.logFrom = c.log[0].version
		c.logged -= len(c.log[0].touched)
		c.log = c.log[1:]
	}
}

// breakLog cuts the log at g's current version: the graph moved in a way
// the log does not describe (a rollback), so no older bound can be advanced.
func (c *boundCache) breakLog(g *graph.Graph) {
	c.log, c.logged, c.logFrom = nil, 0, g.Version()
}

// touchedSince returns what the batches after version v touched, and
// whether the log still reaches back to v.
func (c *boundCache) touchedSince(v graph.Version) ([]graph.NodeID, bool) {
	if v < c.logFrom {
		return nil, false
	}
	var touched []graph.NodeID
	for _, batch := range c.log {
		if batch.version > v {
			touched = append(touched, batch.touched...)
		}
	}
	return touched, true
}

// bound returns the session's bound for the request's engine and pattern,
// valid at g's current version whenever the log allows, and counts what it
// took. A bound the log cannot carry is returned as it is: its Run notices
// the version and rebinds.
func (c *boundCache) bound(g *graph.Graph, req *Request) (*match.Bound, error) {
	engine := req.Engine
	if engine == "" {
		engine = "qmatch"
	}
	key := engine + "\x00" + req.Pattern
	c.clock++
	if cb := c.byKey[key]; cb != nil {
		cb.used = c.clock
		outcome := boundBuilt
		if v := cb.b.Version(); v == g.Version() {
			outcome = boundHit
		} else if touched, ok := c.touchedSince(v); ok && cb.b.Advance(touched) {
			outcome = boundRepaired
		}
		c.m.outcome[outcome].Inc()
		return cb.b, nil
	}
	q, err := core.Parse(req.Pattern)
	if err != nil {
		return nil, err
	}
	prep, err := match.PrepareEngine(engine, q)
	if err != nil {
		return nil, err
	}
	if c.byKey == nil {
		c.byKey = make(map[string]*cachedBound)
	}
	if len(c.byKey) == 0 {
		c.breakLog(g) // the log starts with the first live bound
	}
	if len(c.byKey) >= maxBounds {
		var oldest string
		for k, cb := range c.byKey {
			if oldest == "" || cb.used < c.byKey[oldest].used {
				oldest = k
			}
		}
		delete(c.byKey, oldest)
		c.m.live.Add(-1)
	}
	b := prep.Bind(g)
	c.byKey[key] = &cachedBound{b: b, used: c.clock}
	c.m.live.Add(1)
	c.m.outcome[boundBuilt].Inc()
	return b, nil
}
