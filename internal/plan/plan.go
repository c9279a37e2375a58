// Package plan chooses a matching order for a quantified graph pattern
// from graph statistics (internal/stats), in the spirit of the candidate-
// selectivity heuristics the generic subgraph-isomorphism framework of
// Lee et al. leaves open. The planner is optional: the engine's default
// breadth-first order is always correct; a good order only shrinks the
// intermediate search space.
//
// The cost model is the classic left-deep estimate: starting from the
// focus with |candidates(focus)| partial matches, each extension step
// multiplies the running cardinality by the expected fan from the anchor
// node through the anchor edge (average fan-out of the edge's label
// triple, or fan-in when the anchor is the edge's target), and additional
// bound edges at the step act as filters with selectivity ≤ 1. The greedy
// planner picks, at each step, the connected extension with the smallest
// estimated fan.
package plan

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stats"
)

// Plan is a chosen matching order with its cost estimate.
type Plan struct {
	// Order is a permutation of pattern node indexes; Order[0] is the
	// focus, and every later node is adjacent (in the pattern, ignoring
	// direction) to an earlier one.
	Order []int
	// StepCost[i] is the estimated cardinality of the partial-match
	// relation after binding Order[i].
	StepCost []float64
	// Cost is the sum of step cardinalities — the planner's estimate of
	// total work.
	Cost float64
}

// Choose computes a plan for pattern p over the graph summarized by s.
// The pattern must be connected (ignoring direction); disconnected
// remainders are appended in index order with infinite step cost, which
// the engine tolerates but the caller should treat as a planning failure.
func Choose(g *graph.Graph, s *stats.Stats, p *core.Pattern) *Plan {
	n := len(p.Nodes)
	pl := &Plan{Order: make([]int, 0, n), StepCost: make([]float64, 0, n)}

	type half struct{ other, edge int }
	adj := make([][]half, n)
	for i, e := range p.Edges {
		adj[e.From] = append(adj[e.From], half{e.To, i})
		adj[e.To] = append(adj[e.To], half{e.From, i})
	}

	placed := make([]bool, n)
	place := func(u int, card float64) {
		placed[u] = true
		pl.Order = append(pl.Order, u)
		pl.StepCost = append(pl.StepCost, card)
		pl.Cost += card
	}

	card := math.Max(1, stats.EstimateNode(g, s, p, p.Focus))
	place(p.Focus, card)

	for len(pl.Order) < n {
		best, bestFan := -1, math.Inf(1)
		for u := 0; u < n; u++ {
			if placed[u] {
				continue
			}
			fan := math.Inf(1)
			for _, h := range adj[u] {
				if !placed[h.other] {
					continue
				}
				f := edgeFan(g, s, p, h.edge, h.other)
				// Extra already-bound edges beyond the anchor filter the
				// extension; approximate each as halving the fan.
				bound := 0
				for _, h2 := range adj[u] {
					if h2.edge != h.edge && placed[h2.other] {
						bound++
					}
				}
				f = f / math.Pow(2, float64(bound))
				if f < fan {
					fan = f
				}
			}
			if fan < bestFan {
				best, bestFan = u, fan
			}
		}
		if best < 0 {
			// Disconnected remainder: append in index order, infinite cost.
			for u := 0; u < n; u++ {
				if !placed[u] {
					place(u, math.Inf(1))
				}
			}
			break
		}
		card *= math.Max(bestFan, 1e-9)
		place(best, card)
	}
	return pl
}

// edgeFan estimates the expected number of extensions when growing a
// partial match across pattern edge ei from the already-bound endpoint
// anchor: the average fan-out of the triple class when the anchor is the
// edge source, the average fan-in when it is the target. An absent class
// means the edge is unrealizable; its fan is 0 (the cheapest possible
// extension — it immediately empties the search).
func edgeFan(g *graph.Graph, s *stats.Stats, p *core.Pattern, ei, anchor int) float64 {
	e := p.Edges[ei]
	src := g.LookupLabel(p.Nodes[e.From].Label)
	el := g.LookupLabel(e.Label)
	dst := g.LookupLabel(p.Nodes[e.To].Label)
	if src == graph.NoLabel || el == graph.NoLabel || dst == graph.NoLabel {
		return 0
	}
	ts, ok := s.TripleFor(stats.Triple{Src: src, Edge: el, Dst: dst})
	if !ok {
		return 0
	}
	if anchor == e.From {
		return ts.AvgFanOut()
	}
	return ts.AvgFanIn()
}

// OrderFunc adapts the planner to the engine's Options.OrderBy hook: it
// returns a closure computing a plan for each positive pattern the
// evaluation compiles. Statistics are collected once per call, not per
// pattern.
func OrderFunc(g *graph.Graph, s *stats.Stats) func(p *core.Pattern) []int {
	return func(p *core.Pattern) []int {
		return Choose(g, s, p).Order
	}
}

// Validate checks the structural invariants of a plan against its pattern:
// Order is a permutation, starts at the focus, and each position is
// adjacent to the prefix (for connected patterns). It returns nil when the
// plan is well-formed.
func Validate(p *core.Pattern, pl *Plan) error {
	n := len(p.Nodes)
	if len(pl.Order) != n || len(pl.StepCost) != n {
		return fmt.Errorf("plan: order length %d, cost length %d, want %d", len(pl.Order), len(pl.StepCost), n)
	}
	seen := make([]bool, n)
	for _, u := range pl.Order {
		if u < 0 || u >= n || seen[u] {
			return fmt.Errorf("plan: order is not a permutation")
		}
		seen[u] = true
	}
	if pl.Order[0] != p.Focus {
		return fmt.Errorf("plan: order must start at the focus")
	}
	placed := make([]bool, n)
	placed[p.Focus] = true
	for i := 1; i < n; i++ {
		u := pl.Order[i]
		if math.IsInf(pl.StepCost[i], 1) {
			// Disconnected remainder is permitted but flagged by cost.
			placed[u] = true
			continue
		}
		connected := false
		for _, e := range p.Edges {
			if (e.From == u && placed[e.To]) || (e.To == u && placed[e.From]) {
				connected = true
				break
			}
		}
		if !connected {
			return fmt.Errorf("plan: node %d at position %d is not connected to the prefix", u, i)
		}
		placed[u] = true
	}
	return nil
}
