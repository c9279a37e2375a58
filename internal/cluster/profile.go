package cluster

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

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
// and merges the per-fragment plan documents. Config.Tracer traces it.
func (c *Coordinator) Explain(q *core.Pattern) (res *ExplainResult, err error) {
	tr := c.cfg.Tracer.Start("explain")
	defer func() { tr.Finish(err) }()
	return c.explain(q, tr)
}

// explain runs Explain, recording an rtt span per worker in tr.
func (c *Coordinator) explain(q *core.Pattern, tr *obs.Trace) (res *ExplainResult, err error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
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
