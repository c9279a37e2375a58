package match

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// Profile is the structured per-stage record of one evaluation — what
// the prefilters kept, which matching order ran, and where the time
// went. It is the PROFILE document's match section: Metrics says how
// much work happened, Profile says where and why.
type Profile struct {
	// Patterns holds one entry per compiled positive pattern, in
	// evaluation order: Π(Q) first, then each positified Q+e.
	Patterns []PatternProfile `json:"patterns"`
	// TotalMS is the wall-clock time of the whole evaluation.
	TotalMS float64 `json:"total_ms"`
	// Metrics is the evaluation's aggregate work metrics (the same value
	// as Result.Metrics, repeated so the document is self-contained).
	Metrics Metrics `json:"metrics"`
}

// PatternProfile records one positive pattern's compilation and
// evaluation: prefilter sizes per pattern node, the matching order
// actually used, and stage timings.
type PatternProfile struct {
	// Pattern names the pattern within the query: "pi" for Π(Q), or
	// "pi+e<i>" for the positified pattern of negated edge i.
	Pattern string `json:"pattern"`
	// FastPath reports the focus-scoped fast path: the restriction was
	// small enough that label-based candidates beat paying O(|G|)
	// simulation and acceptance filtering.
	FastPath bool `json:"fast_path,omitempty"`
	// Bound says where the candidate and acceptance sets came from: "built"
	// by this run, "repaired" by the Bound's Advance since the last run, or
	// a "hit" on sets an earlier run at this graph version left. Omitted on
	// the fast path, which has none.
	Bound string `json:"bound,omitempty"`
	// Restricted is the focus-restriction size (0 = unrestricted): the
	// candidate cap IncQMatch or a scoped re-verification imposed.
	Restricted int `json:"restricted,omitempty"`
	// Empty reports a compile-time prune: some candidate set was empty
	// (unknown label, failed simulation, threshold test), so the pattern
	// has no matches and evaluation was skipped entirely.
	Empty bool `json:"empty,omitempty"`
	// Nodes reports the per-pattern-node prefilter sizes.
	Nodes []NodeProfile `json:"nodes,omitempty"`
	// Order is the matching order used (node names; the focus first), as
	// ranked by the graph's label-class sizes when the bound resolved its
	// labels (see Explain).
	Order []string `json:"order,omitempty"`
	// CompileMS and EvalMS split the pattern's time into the prefilter/
	// compile stage and the backtracking search.
	CompileMS float64 `json:"compile_ms"`
	EvalMS    float64 `json:"eval_ms"`
	// Answers is the number of focus matches this pattern produced.
	Answers int `json:"answers"`
	// Metrics is this pattern's share of the evaluation work.
	Metrics Metrics `json:"metrics"`
}

// NodeProfile reports the prefilter sizes of one pattern node:
// Candidates is the stratified-sound candidate set (dual simulation for
// QMatch, label-based otherwise), Accepted the quantifier-threshold
// acceptance filter (Lemma 13) on top of it.
type NodeProfile struct {
	Name       string `json:"name"`
	Candidates int    `json:"candidates"`
	Accepted   int    `json:"accepted"`
}

// metricsDelta returns after minus before, field by field.
func metricsDelta(after, before Metrics) Metrics {
	return Metrics{
		FocusCandidates: after.FocusCandidates - before.FocusCandidates,
		Verifications:   after.Verifications - before.Verifications,
		Extensions:      after.Extensions - before.Extensions,
		EarlyAccepts:    after.EarlyAccepts - before.EarlyAccepts,
		AcceptSearches:  after.AcceptSearches - before.AcceptSearches,
		IncRuns:         after.IncRuns - before.IncRuns,
		IncCandidates:   after.IncCandidates - before.IncCandidates,
	}
}

// Explanation is the explain command's plan: the matching order of every
// positive pattern an evaluation of the query runs, Π(Q) first and then
// each positified Q+e, as binding the query to a graph ranks it. Nothing
// is evaluated.
type Explanation struct {
	Patterns []PatternPlan `json:"patterns"`
}

// PatternPlan is one positive pattern's matching order and what ranked it.
type PatternPlan struct {
	// Pattern names the pattern within the query, as PatternProfile does.
	Pattern string `json:"pattern"`
	// Order is the matching order as node names, the focus first.
	Order []string `json:"order"`
	// Class[i] is the size of Order[i]'s label class in the graph.
	// Estimate[i] is what step i was ranked by: Class[i] over the class
	// size (at least 1) of the node it is anchored at. The focus is placed
	// first, unranked, and reads 1.
	Class    []int     `json:"class"`
	Estimate []float64 `json:"estimate"`
}

// Explain returns the matching orders an evaluation of q over g would run.
func Explain(g *graph.Graph, q *core.Pattern) (*Explanation, error) {
	p, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	b := p.Bind(g)
	ex := &Explanation{}
	for _, bp := range b.pos {
		pp := PatternPlan{Pattern: bp.name}
		class := func(u int) int { return len(g.NodesByLabel(bp.nodeLabel[u])) }
		for i, u := range bp.ord.order {
			est := 1.0
			if i > 0 {
				est = float64(class(u)) / float64(max(class(bp.ord.anchors[i].at), 1))
			}
			pp.Order = append(pp.Order, bp.p.Nodes[u].Name)
			pp.Class = append(pp.Class, class(u))
			pp.Estimate = append(pp.Estimate, est)
		}
		ex.Patterns = append(ex.Patterns, pp)
	}
	return ex, nil
}
