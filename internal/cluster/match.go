package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
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
	// PerWorker is each worker's contributed answer count.
	PerWorker []int
}

// MatchOptions tunes one Match call; zero values fall back to the
// coordinator's Config.
type MatchOptions struct {
	Engine  string // per-worker engine: qmatch | qmatchn | enum
	Budget  int64  // extension budget forwarded to workers
	Planner bool   // let each worker plan its matching order from fragment stats
}

// Match evaluates a quantified pattern across the cluster: the pattern is
// fanned out to every worker, each evaluates it over its fragment
// restricted to its owned focus candidates, and the coordinator merges the
// disjoint partial answers. ClusterMatch of the ISSUE's API naming.
func (c *Coordinator) Match(q *core.Pattern) (*MatchResult, error) {
	return c.MatchWith(q, nil)
}

// MatchWith is Match with per-call options.
func (c *Coordinator) MatchWith(q *core.Pattern, opts *MatchOptions) (*MatchResult, error) {
	return c.matchWith(q, opts, nil)
}

// matchWith runs one cluster match through routedRead. A non-nil prof
// switches the workers to the profile command and fills the merged
// cluster-level profile: per-fragment compute/round-trip timings with the
// workers' own stage documents embedded verbatim.
func (c *Coordinator) matchWith(q *core.Pattern, opts *MatchOptions, prof *MatchProfile) (res *MatchResult, err error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if need := core.RequiredHops(q); need > c.cfg.D {
		return nil, fmt.Errorf("cluster: pattern needs %d-hop preservation but the fragmentation has d=%d", need, c.cfg.D)
	}
	start := time.Now()
	tr := c.cfg.Tracer.Start("match")
	defer func() { tr.Finish(err) }()

	req := server.Request{Cmd: "match", Pattern: q.String(), Engine: c.cfg.Engine, Budget: c.cfg.Budget}
	if opts != nil {
		if opts.Engine != "" {
			req.Engine = opts.Engine
		}
		if opts.Budget > 0 {
			req.Budget = opts.Budget
		}
		req.Planner = opts.Planner
	}
	if prof != nil {
		req.Cmd = "profile"
	}
	err = c.routedRead(tr, req, func(replies []workerReply) error {
		tm := time.Now()
		out := &MatchResult{PerWorker: make([]int, len(replies))}
		runs := make([][]graph.NodeID, len(replies))
		for i, r := range replies {
			tr.Annotatef("w%d:compute=%.2fms answers=%d", i, r.resp.ElapsedMS, len(r.resp.Matches))
			c.om.workerMatchMS[i].Observe(r.rttMS)
			out.PerWorker[i] = len(r.resp.Matches)
			var err error
			if runs[i], err = c.workers[i].globalRun(r.resp.Matches); err != nil {
				return err
			}
			// Per-worker engine metrics fold into the cluster-wide totals:
			// ownership partitions the focus candidates, so sums over the
			// workers are exactly the single-process work counts.
			if r.resp.Metrics != nil {
				out.Metrics.Add(*r.resp.Metrics)
			}
		}
		out.Matches = mergeRuns(runs)
		tr.Span(-1, "merge", tm)
		if prof != nil {
			prof.Op, prof.Engine = "match", req.Engine
			if prof.Engine == "" {
				prof.Engine = "qmatch"
			}
			prof.Workers = len(replies)
			prof.Fragments = make([]FragmentProfile, len(replies))
			for i, r := range replies {
				prof.Fragments[i] = FragmentProfile{
					Worker:    i,
					Answers:   len(r.resp.Matches),
					ComputeMS: r.resp.ElapsedMS,
					RTTMS:     r.rttMS,
					Profile:   r.resp.Profile,
				}
			}
			prof.Matches = len(out.Matches)
			prof.MergeMS = server.MsSince(tm)
			prof.TotalMS = server.MsSince(start)
			prof.Metrics = out.Metrics
		}
		c.om.matchCount.Inc()
		c.om.matchMS.ObserveSince(start)
		res = out
		return nil
	})
	return res, err
}
