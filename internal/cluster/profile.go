package cluster

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/server"
)

// This file defines the coordinator's merged profile documents. The
// coordinator does not re-interpret worker profiles: each worker's own
// per-stage document (produced by the server's profile command against
// its fragment) is embedded verbatim as raw JSON, with the coordinator
// contributing the cross-fragment dimensions a worker cannot see —
// round-trip vs compute split, fan-out width, merge time, and the
// workers' summed re-verification work.

// MatchProfile is the merged cluster-level profile of one match.
type MatchProfile struct {
	Op      string `json:"op"` // "match"
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
	// Fragments has one entry per worker, indexed by worker id.
	Fragments []FragmentProfile `json:"fragments"`
	Matches   int               `json:"matches"`
	MergeMS   float64           `json:"merge_ms"`
	TotalMS   float64           `json:"total_ms"`
	Metrics   match.Metrics     `json:"metrics"`
}

// FragmentProfile is one worker's share of a cluster match. ComputeMS is
// the worker-reported handler time; RTTMS the coordinator-measured round
// trip — their difference is serialization + wire + queueing. Profile is
// the worker's own per-stage document, embedded verbatim.
type FragmentProfile struct {
	Worker    int             `json:"worker"`
	Answers   int             `json:"answers"`
	ComputeMS float64         `json:"compute_ms"`
	RTTMS     float64         `json:"rtt_ms"`
	Profile   json.RawMessage `json:"profile,omitempty"`
}

// UpdateProfile is the merged cluster-level profile of one update batch:
// the coordinator pipeline stage by stage (apply / journal /
// materialization ball / fan-out / merge), per contacted worker timings
// with the worker's own stage document, and the affected-vs-|G| work ratio.
type UpdateProfile struct {
	Op        string `json:"op"` // "update"
	BatchSize int    `json:"batch_size"`
	Touched   int    `json:"touched"`
	Nodes     int    `json:"nodes"`
	// AffectedSize is the workers' summed re-verification count
	// (UpdateResult.AffectedSize); WorkRatio = AffectedSize / Nodes.
	// The incremental claim is WorkRatio ≪ 1 for small batches.
	AffectedSize int     `json:"affected_size"`
	WorkRatio    float64 `json:"work_ratio"`
	ApplyMS      float64 `json:"apply_ms"`
	JournalMS    float64 `json:"journal_ms,omitempty"`
	// AffectedMS times the ball around the batch's insertions that bounds
	// materialization upkeep; the workers time their own candidates.
	AffectedMS float64 `json:"affected_ms"`
	FanoutMS   float64 `json:"fanout_ms"`
	MergeMS    float64 `json:"merge_ms"`
	TotalMS    float64 `json:"total_ms"`
	// Workers has one entry per contacted worker, ascending id; skipped
	// workers (the routing win) do not appear.
	Workers []WorkerUpdateProfile `json:"workers,omitempty"`
}

// WorkerUpdateProfile is one contacted worker's share of an update.
type WorkerUpdateProfile struct {
	Worker    int     `json:"worker"`
	PlanMS    float64 `json:"plan_ms"`
	RTTMS     float64 `json:"rtt_ms"`
	MirrorMS  float64 `json:"mirror_ms,omitempty"`
	Mutations int     `json:"mutations"`
	// Affected is the reply's Total: what the worker re-judged.
	Affected int `json:"affected"`
	Assigned int `json:"assigned,omitempty"`
	// Profile is the worker's own update stage document (apply time,
	// per-watch affected/verify split), embedded verbatim.
	Profile json.RawMessage `json:"profile,omitempty"`
}

// ExplainResult is the merged cluster-level explain document: each
// worker plans the query against its own fragment statistics, so the
// per-fragment orders may legitimately differ.
type ExplainResult struct {
	Op        string            `json:"op"` // "explain"
	Workers   int               `json:"workers"`
	Fragments []FragmentExplain `json:"fragments"`
}

// FragmentExplain is one worker's plan document, embedded verbatim.
type FragmentExplain struct {
	Worker int             `json:"worker"`
	Plan   json.RawMessage `json:"plan,omitempty"`
}

// Explain fans the explain command out to every worker (routedRead:
// nothing is executed, so it routes across fragment copies like Match)
// and merges the per-fragment plan documents.
func (c *Coordinator) Explain(q *core.Pattern) (res *ExplainResult, err error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	tr := c.cfg.Tracer.Start("explain")
	defer func() { tr.Finish(err) }()
	req := server.Request{Cmd: "explain", Pattern: q.String()}
	err = c.routedRead(tr, req, func(replies []workerReply) error {
		res = &ExplainResult{Op: "explain", Workers: len(replies), Fragments: make([]FragmentExplain, len(replies))}
		for i, r := range replies {
			res.Fragments[i] = FragmentExplain{Worker: i, Plan: r.resp.Profile}
		}
		return nil
	})
	return res, err
}
