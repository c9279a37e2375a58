package server

import (
	"time"

	"repro/internal/plan"
)

// ExplainDoc is the explain command's document: the planner's view of a
// query (what order, at what estimated cost) without executing it. It
// travels in Response.Profile as raw JSON, so the cluster coordinator can
// embed a worker's document verbatim in its merged one. The profile
// command's document is the request's trace record (obs.TraceRecord).
type ExplainDoc struct {
	Op   string            `json:"op"` // "explain"
	Plan *plan.Explanation `json:"plan"`
}

// msSince returns the elapsed time since t0 in fractional milliseconds,
// the unit of every timing on the wire.
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Microseconds()) / 1000 }
