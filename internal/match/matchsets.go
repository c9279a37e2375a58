package match

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// MatchSets computes Q(u, G) for every pattern node u of a positive QGP:
// the set of graph nodes appearing as the image of u in some
// quantifier-valid match (Table 1 of the paper). The result maps pattern
// node names to sorted node lists; nodes of the pattern with no valid
// match map to empty sets.
//
// Negative patterns are rejected: the paper defines answers of negative
// QGPs only for the focus (via set difference), not per node.
func MatchSets(g *graph.Graph, q *core.Pattern, opts *Options) (map[string][]graph.NodeID, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("match: %w", err)
	}
	if !q.IsPositive() {
		return nil, fmt.Errorf("match: MatchSets requires a positive pattern")
	}

	out := make(map[string][]graph.NodeID, len(q.Nodes))
	images := make([]map[graph.NodeID]struct{}, len(q.Nodes))
	for i := range images {
		images[i] = make(map[graph.NodeID]struct{})
	}

	restrict, err := combineRestrictions(g.NumNodes(), opts, nil)
	if err != nil {
		return nil, err
	}
	// Per-node answers need the full candidate and acceptance sets whatever
	// the restriction, so there is no fast path to take here.
	b := (&Prepared{cfg: qmatchConfig, pi: newPositive("", q)}).Bind(g)
	if bp := &b.pos[0]; !bp.unlabelled {
		if cand, accept, _ := b.sets(bp); cand != nil {
			pr := bp.program(g, cand, accept, nil)
			if opts != nil {
				pr.budget = opts.ExtensionBudget
			}
			if err := collectMatchSets(pr, restrict, images); err != nil {
				return nil, err
			}
		}
	}

	for i, n := range q.Nodes {
		vs := make([]graph.NodeID, 0, len(images[i]))
		for v := range images[i] {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
		out[n.Name] = vs
	}
	return out, nil
}

// collectMatchSets enumerates, per focus candidate, the valid matches and
// records every image. Validity needs exact counts, so early acceptance is
// disabled and each accepted candidate re-enumerates over the count-valid
// filter.
func collectMatchSets(pr *program, restrict *restriction, images []map[graph.NodeID]struct{}) error {
	var m Metrics
	pr.eachFocus(restrict, func(vx graph.NodeID) bool {
		realized := make(witnesses)
		found := false
		pr.run(vx, pr.cand, nil, false, &m, func(assign []graph.NodeID) bool {
			found = true
			pr.countImages(realized, assign)
			return true
		})
		if !found || pr.budgetExceeded || !pr.countOK(realized, pr.p.Focus, vx) {
			return !pr.budgetExceeded
		}
		pr.run(vx, pr.accept, realized, false, &m, func(assign []graph.NodeID) bool {
			for u, w := range assign {
				images[u][w] = struct{}{}
			}
			return true
		})
		return !pr.budgetExceeded
	})
	if pr.budgetExceeded {
		return ErrBudgetExceeded
	}
	return nil
}
