package server

import (
	"time"

	"repro/internal/match"
	"repro/internal/plan"
)

// This file implements the explain and profile wire commands: EXPLAIN is
// the planner's view of a query (what order, at what estimated cost),
// PROFILE executes and pairs the result with the per-stage record of
// where the work and the time actually went. Documents travel in
// Response.Profile as raw JSON, so the cluster coordinator can embed a
// worker's document verbatim inside its merged cluster-level profile.

// ExplainDoc is the explain command's document.
type ExplainDoc struct {
	Op   string            `json:"op"` // "explain"
	Plan *plan.Explanation `json:"plan"`
}

// MatchProfileDoc is the profile command's document for a match request:
// the planner's estimates side by side with the observed per-pattern
// stage profile.
type MatchProfileDoc struct {
	Op      string            `json:"op"` // "match"
	Engine  string            `json:"engine"`
	Planner bool              `json:"planner,omitempty"`
	Plan    *plan.Explanation `json:"plan,omitempty"`
	Profile *match.Profile    `json:"profile"`
	Matches int               `json:"matches"`
	TotalMS float64           `json:"total_ms"`
}

// UpdateProfileDoc is the profile command's document for an update
// request: per-stage timings of the incremental maintenance pipeline and
// the affected-region size against |V| — the work∝change ratio the
// versioned core is supposed to deliver.
type UpdateProfileDoc struct {
	Op        string  `json:"op"` // "update"
	BatchSize int     `json:"batch_size"`
	Touched   int     `json:"touched"`
	Nodes     int     `json:"nodes"`
	ApplyMS   float64 `json:"apply_ms"`
	// AffectedSize is the number of focus candidates the widest watch
	// re-judged. WorkRatio = AffectedSize / Nodes; the incremental claim is
	// that it stays ≪ 1 for small batches.
	AffectedSize int     `json:"affected_size"`
	WorkRatio    float64 `json:"work_ratio"`
	// Groups is the number of distinct patterns evaluated; the Watches
	// rows of names sharing a pattern repeat their group's one evaluation.
	Groups  int                 `json:"groups,omitempty"`
	Watches []WatchStageProfile `json:"watches,omitempty"`
	TotalMS float64             `json:"total_ms"`
}

// WatchStageProfile is one standing watch's share of an update, split
// into affected-set computation and candidate re-verification.
type WatchStageProfile struct {
	Watch      string  `json:"watch"`
	Affected   int     `json:"affected"`
	AffectedMS float64 `json:"affected_ms"`
	VerifyMS   float64 `json:"verify_ms"`
	Added      int     `json:"added"`
	Removed    int     `json:"removed"`
}

// MsSince returns the elapsed time since t0 in fractional milliseconds,
// the unit of every timing on the wire and in profile documents.
func MsSince(t0 time.Time) float64 { return durMS(time.Since(t0)) }

func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
