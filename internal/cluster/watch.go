package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
)

// Watch registers a standing pattern on every worker under the given name
// and returns the merged initial answer set; every later Update reports
// the watch's merged answer delta.
//
// Each worker maintains the answers of its owned focus candidates in its
// session's dynamic.Engine (one restricted evaluation per distinct
// pattern, however many names hold it), so maintenance work is sharded
// the same way matching is. Watches live only on primaries: a replica
// promoted by failover re-registers them before serving.
//
// Config.Tracer traces it with an rtt span per worker. Through the front
// end this is a record of its own beside the request's: tenant watches
// reach here through tenant.Registrar, which carries no trace.
func (c *Coordinator) Watch(name string, q *core.Pattern) (initial []graph.NodeID, err error) {
	if name == "" {
		return nil, fmt.Errorf("cluster: watch: empty name")
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if need := core.RequiredHops(q); need > c.cfg.D {
		return nil, fmt.Errorf("cluster: pattern needs %d-hop preservation but the fragmentation has d=%d", need, c.cfg.D)
	}
	tr := c.cfg.Tracer.Start("watch")
	defer func() { tr.Finish(err) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.refuseLocked(); err != nil {
		return nil, err
	}
	if _, dup := c.watches[name]; dup {
		return nil, fmt.Errorf("cluster: watch %q already registered", name)
	}

	pattern := q.String()
	responses := make([]*server.Response, len(c.workers))
	err = c.fanOut(func(w *worker) error {
		t0 := time.Now()
		resp, err := c.sendPrimary(w, "watch", &server.Request{Cmd: "watch", Watch: name, Pattern: pattern}, c.g)
		if err != nil {
			return err
		}
		tr.Span(w.id, "rtt", t0)
		responses[w.id] = resp
		return nil
	})
	if err != nil {
		// Some workers may now hold the watch while others don't; deltas
		// from the orphans would leak into later updates. A protocol
		// rejection (the worker answered, e.g. at its per-session watch
		// cap, server.Config.MaxWatches; the coordinator has no cap of its
		// own) left every contacted worker alive and changed no graph
		// state, so the orphans are rolled back and the error stays
		// scoped to this one caller instead of fail-stopping the shared
		// cluster for every tenant. A transport failure (worker died
		// mid-registration and failover could not replace it) fail-stops,
		// as Update does, and so does a failed rollback.
		var se *client.ServerError
		if errors.As(err, &se) {
			if rberr := c.rollbackWatchLocked(name, responses); rberr != nil {
				c.failed = fmt.Errorf("watch %q: %v; rollback: %w", name, err, rberr)
				return nil, c.failed
			}
			return nil, err
		}
		c.failed = err
		return nil, err
	}
	runs := make([][]graph.NodeID, len(responses))
	for i, resp := range responses {
		if runs[i], err = c.workers[i].globalRun(resp.Matches); err != nil {
			c.failed = err
			return nil, err
		}
	}
	c.watches[name] = pattern
	if c.cfg.Journal != nil {
		if err := c.cfg.Journal.WatchRegistered(name, pattern); err != nil {
			// The watch is live on every worker but not durable; a
			// recovery would silently drop it. Fail-stop rather than
			// diverge from the journal.
			c.failed = fmt.Errorf("journal watch %q: %w", name, err)
			return nil, c.failed
		}
	}
	c.om.watchCount.Inc()
	c.om.watchGroups.Set(c.patternCount())
	return mergeRuns(runs), nil
}

// rollbackWatchLocked removes a partially registered watch from the
// workers that accepted it (those with a non-nil response in the Watch
// fan-out). Workers that rejected or died never hold the watch: a
// protocol error means the server refused the registration, and a
// transport failure replaced the primary with a copy enlisted from
// c.watches, which does not yet contain name. A protocol error from the
// rollback unwatch itself is benign — the server only refuses unwatch
// for a name it does not hold (a failover mid-rollback promoted a copy
// without the orphan), so no orphan remains either way. Callers hold
// c.mu.
func (c *Coordinator) rollbackWatchLocked(name string, responses []*server.Response) error {
	return c.fanOut(func(w *worker) error {
		if responses[w.id] == nil {
			return nil
		}
		_, err := c.sendPrimary(w, "unwatch", &server.Request{Cmd: "unwatch", Watch: name}, c.g)
		var se *client.ServerError
		if errors.As(err, &se) {
			return nil
		}
		return err
	})
}

// Unwatch removes a standing pattern from every worker.
func (c *Coordinator) Unwatch(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.refuseLocked(); err != nil {
		return err
	}
	if _, ok := c.watches[name]; !ok {
		return fmt.Errorf("cluster: no watch named %q", name)
	}
	err := c.fanOut(func(w *worker) error {
		_, err := c.sendPrimary(w, "unwatch", &server.Request{Cmd: "unwatch", Watch: name}, c.g)
		return err
	})
	if err != nil {
		// Partial removal: some workers still hold the watch. Fail-stop.
		c.failed = err
		return err
	}
	delete(c.watches, name)
	c.om.watchGroups.Set(c.patternCount())
	if c.cfg.Journal != nil {
		if err := c.cfg.Journal.WatchRemoved(name); err != nil {
			c.failed = fmt.Errorf("journal unwatch %q: %w", name, err)
			return c.failed
		}
	}
	return nil
}

// patternCount is the number of distinct patterns among the watches: the
// workers' watch groups, one evaluation each. Callers hold c.mu.
func (c *Coordinator) patternCount() int64 {
	patterns := make(map[string]bool, len(c.watches))
	for _, p := range c.watches {
		patterns[p] = true
	}
	return int64(len(patterns))
}

// Watches returns the registered watch names, sorted.
func (c *Coordinator) Watches() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return sortedKeys(c.watches)
}
