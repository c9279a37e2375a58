package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/server"
)

// MatchResult is a merged cluster-wide answer set.
type MatchResult struct {
	// Matches is the global focus-node answer set, sorted ascending. It
	// equals the single-process answer set: ownership is a partition of
	// the nodes and fragment-local evaluation is exact for owned nodes.
	Matches []graph.NodeID
	// Metrics aggregates the per-worker engine metrics.
	Metrics match.Metrics
	// PerWorker is each worker's engine metrics, by fragment: their sum
	// is the run's total work, their maximum its critical path (§5).
	PerWorker []match.Metrics
}

// Work returns the match's work as §5 accounts it: total, the summed work
// (extensions + verifications) of every worker, the sequential cost; and
// slowest, the largest worker's, the critical path of a parallel run.
func (r *MatchResult) Work() (total, slowest int64) {
	for _, m := range r.PerWorker {
		work := m.Extensions + int64(m.Verifications)
		total += work
		slowest = max(slowest, work)
	}
	return total, slowest
}

// MatchOptions tunes one Match call; zero values fall back to the
// coordinator's Config.
type MatchOptions struct {
	Engine string // per-worker engine: qmatch | qmatchn | enum
	Budget int64  // extension budget forwarded to workers
}

// Match evaluates a quantified pattern across the cluster: the pattern is
// fanned out to every worker, each evaluates it over its fragment
// restricted to its owned focus candidates, and the coordinator merges the
// disjoint partial answers.
func (c *Coordinator) Match(q *core.Pattern) (*MatchResult, error) {
	return c.MatchWith(q, nil)
}

// MatchWith is Match with per-call options, traced by Config.Tracer.
func (c *Coordinator) MatchWith(q *core.Pattern, opts *MatchOptions) (res *MatchResult, err error) {
	tr := c.cfg.Tracer.Start("match")
	defer func() { tr.Finish(err) }()
	return c.matchWith(q, opts, tr)
}

// matchWith runs one cluster match through routedRead, recording it in tr
// (nil: untraced): an rtt span per worker, holding the worker's own record
// when tr is deep, the merge and the answers count. An engine no worker
// would run is refused here, in the front end's words, before any worker
// is contacted.
func (c *Coordinator) matchWith(q *core.Pattern, opts *MatchOptions, tr *obs.Trace) (res *MatchResult, err error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if need := core.RequiredHops(q); need > c.cfg.D {
		return nil, fmt.Errorf("cluster: pattern needs %d-hop preservation but the fragmentation has d=%d", need, c.cfg.D)
	}
	start := time.Now()
	req := server.Request{Cmd: "match", Pattern: q.String(), Engine: c.cfg.Engine, Budget: c.cfg.Budget, Trace: tr.HopID()}
	if opts != nil {
		if opts.Engine != "" {
			req.Engine = opts.Engine
		}
		if opts.Budget > 0 {
			req.Budget = opts.Budget
		}
	}
	if _, err := match.ParseEngine(req.Engine); err != nil {
		return nil, err
	}
	err = c.routedRead(tr, req, func(replies []workerReply) error {
		tm := time.Now()
		out := &MatchResult{PerWorker: make([]match.Metrics, len(replies))}
		runs := make([][]graph.NodeID, len(replies))
		for i, r := range replies {
			c.om.workerMatchMS[i].Observe(float64(r.rtt.Microseconds()) / 1000)
			var err error
			if runs[i], err = c.workers[i].globalRun(r.resp.Matches); err != nil {
				return err
			}
			// Per-worker engine metrics fold into the cluster-wide totals:
			// ownership partitions the focus candidates, so sums over the
			// workers are exactly the single-process work counts.
			if r.resp.Metrics != nil {
				out.PerWorker[i] = *r.resp.Metrics
				out.Metrics.Add(*r.resp.Metrics)
			}
		}
		out.Matches = mergeRuns(runs)
		tr.Span(-1, "merge", tm)
		tr.Count("answers", len(out.Matches))
		c.om.matchCount.Inc()
		c.om.matchMS.ObserveSince(start)
		res = out
		return nil
	})
	return res, err
}
