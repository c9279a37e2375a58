package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/plan"
	"repro/internal/stats"
)

// Experiments 14 and 15 are not paper figures: they measure the two
// extension subsystems (planner, dynamic maintenance) with the same row
// format as the paper experiments, so qgpbench serves both.

// exp14 — planner ablation: QMatch with the default breadth-first order
// vs the statistics-driven order, per pattern size.
func exp14(sc Scale, w io.Writer) error {
	g := gen.Social(gen.DefaultSocial(sc.SocialPersons, sc.Seed))
	st := stats.Collect(g)
	orderBy := plan.OrderFunc(g, st)

	for _, shape := range []struct{ nodes, edges int }{{4, 5}, {5, 6}, {6, 7}} {
		patterns := patternsWithHops(g, gen.PatternConfig{
			Nodes: shape.nodes, Edges: shape.edges, RatioBP: 3000, Seed: sc.Seed + int64(shape.nodes),
		}, sc.PatternsPerPoint, 3)
		if len(patterns) == 0 {
			continue
		}
		x := fmt.Sprintf("(%d,%d)", shape.nodes, shape.edges)
		for _, series := range []struct {
			name string
			opts *match.Options
		}{
			{"default", nil},
			{"planned", &match.Options{OrderBy: orderBy}},
		} {
			start := time.Now()
			var work int64
			matches := 0
			for _, p := range patterns {
				res, err := match.QMatch(g, p, series.opts)
				if err != nil {
					return err
				}
				work += res.Metrics.Extensions + int64(res.Metrics.Verifications)
				matches += len(res.Matches)
			}
			row(w, 14, x, series.name, time.Since(start), work, work, matches)
		}
	}
	return nil
}

// exp15 — dynamic maintenance: answers kept live over a stream of edge
// insertions, incrementally (Matcher) vs full recomputation, per batch
// count.
func exp15(sc Scale, w io.Writer) error {
	g := gen.Social(gen.DefaultSocial(sc.SocialPersons/2, sc.Seed))
	patterns := patternsWithHops(g, gen.PatternConfig{
		Nodes: 3, Edges: 3, RatioBP: 3000, Seed: sc.Seed + 99,
	}, 1, 2)
	if len(patterns) == 0 {
		return fmt.Errorf("exp15: no feasible pattern")
	}
	q := patterns[0]

	for _, batches := range []int{5, 10, 20} {
		ups := make([][]graph.Mutation, batches)
		for i := range ups {
			f := graph.NodeID((i * 37) % g.NumNodes())
			to := graph.NodeID((i*91 + 13) % g.NumNodes())
			ups[i] = []graph.Mutation{graph.AddEdge(f, to, "follow")}
		}
		x := fmt.Sprintf("%d", batches)

		start := time.Now()
		m, err := dynamic.NewMatcher(g, q)
		if err != nil {
			return err
		}
		verified := 0
		for _, u := range ups {
			d, err := m.Apply(u)
			if err != nil {
				return err
			}
			verified += d.Affected
		}
		row(w, 15, x, "increment", time.Since(start), int64(verified), int64(verified), len(m.Answers()))

		start = time.Now()
		cur := g
		recomputeWork := 0
		var finalMatches int
		for _, u := range ups {
			ng, _, err := dynamic.Apply(cur, u)
			if err != nil {
				return err
			}
			cur = ng
			res, err := match.QMatch(cur, q, nil)
			if err != nil {
				return err
			}
			recomputeWork += res.Metrics.FocusCandidates
			finalMatches = len(res.Matches)
		}
		row(w, 15, x, "recompute", time.Since(start), int64(recomputeWork), int64(recomputeWork), finalMatches)
	}
	return nil
}
