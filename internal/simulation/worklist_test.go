package simulation_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/simulation"
)

// sweepCandidates is the reference the worklist must agree with: the
// textbook refinement that re-checks every candidate of every pattern node
// until a whole sweep removes nothing. Deliberately naive; it shares no
// code with Candidates.
func sweepCandidates(g *graph.Graph, p *core.Pattern, quantified bool) ([]*bitset.Set, bool) {
	sets := make([]*bitset.Set, len(p.Nodes))
	for u, pn := range p.Nodes {
		sets[u] = bitset.New(g.NumNodes())
		for _, v := range g.NodesByLabelName(pn.Label) {
			sets[u].Add(int(v))
		}
	}
	ok := func(u int, v graph.NodeID) bool {
		for _, e := range p.Edges {
			if e.IsNegated() {
				continue
			}
			l := g.LookupLabel(e.Label)
			if l == graph.NoLabel {
				return false
			}
			if e.From == u {
				need := 1
				if quantified {
					n, sat := e.Q.Threshold(g.CountOut(v, l))
					if !sat {
						return false
					}
					if n > need {
						need = n
					}
				}
				cnt := 0
				for _, ge := range g.Out(v) {
					if ge.Label == l && sets[e.To].Contains(int(ge.To)) {
						cnt++
					}
				}
				if cnt < need {
					return false
				}
			}
			if e.To == u {
				found := false
				for _, ge := range g.In(v) {
					if ge.Label == l && sets[e.From].Contains(int(ge.To)) {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for u := range p.Nodes {
			for _, vi := range sets[u].Slice() {
				if !ok(u, graph.NodeID(vi)) {
					sets[u].Remove(vi)
					changed = true
				}
			}
		}
	}
	for u := range sets {
		if sets[u].Empty() {
			return sets, false
		}
	}
	return sets, true
}

// agree compares Candidates with the sweep in both modes. When a set
// empties, Candidates must have cleared every set. It reports whether the
// fixpoint was non-empty.
func agree(t *testing.T, g *graph.Graph, p *core.Pattern, what string) (nonEmpty bool) {
	t.Helper()
	for _, quantified := range []bool{false, true} {
		got, gotOK := simulation.Candidates(g, p, quantified)
		want, wantOK := sweepCandidates(g, p, quantified)
		if gotOK != wantOK {
			t.Fatalf("%s quantified=%v: ok = %v, sweep says %v\n%s", what, quantified, gotOK, wantOK, p)
		}
		if !gotOK {
			for u := range got {
				if !got[u].Empty() {
					t.Fatalf("%s quantified=%v: no candidates, yet C(%s) = %v\n%s", what, quantified, p.Nodes[u].Name, got[u].Slice(), p)
				}
			}
			continue
		}
		nonEmpty = true
		for u := range want {
			if fmt.Sprint(got[u].Slice()) != fmt.Sprint(want[u].Slice()) {
				t.Fatalf("%s quantified=%v: C(%s) = %v, sweep gives %v\n%s",
					what, quantified, p.Nodes[u].Name, got[u].Slice(), want[u].Slice(), p)
			}
		}
	}
	return nonEmpty
}

func cyclic(p *core.Pattern) bool {
	pos := 0
	for _, e := range p.Edges {
		if !e.IsNegated() {
			pos++
		}
	}
	pi, _ := p.Pi()
	return pos >= len(pi.Nodes) // connected with ≥ |V| edges: not a tree
}

// The generated workload patterns on the generated social graph: trees
// and patterns closed into cycles, ratio quantifiers, negated branches.
func TestWorklistEqualsSweepOnGeneratedPatterns(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(300, 3))
	cycles := 0
	for _, cfg := range []gen.PatternConfig{
		{Nodes: 3, Edges: 2, RatioBP: 3000, Seed: 1},
		{Nodes: 4, Edges: 6, RatioBP: 3000, NegEdges: 1, Seed: 2},
		{Nodes: 5, Edges: 8, RatioBP: 6000, NegEdges: 1, Seed: 3},
		{Nodes: 5, Edges: 7, RatioBP: 9000, Seed: 4},
	} {
		for i, p := range gen.Patterns(g, cfg, 12) {
			if cyclic(p) {
				cycles++
			}
			agree(t, g, p, fmt.Sprintf("cfg seed %d pattern %d", cfg.Seed, i))
		}
	}
	if cycles == 0 {
		t.Fatal("no generated pattern had a cycle")
	}
}

// Small random graphs and patterns with arbitrary extra edges: dense in
// removals, long removal chains, and sets that empty.
func TestWorklistEqualsSweepOnRandomInstances(t *testing.T) {
	nodeLabels := []string{"a", "b"}
	edgeLabels := []string{"R", "S"}
	cycles, empties, kept := 0, 0, 0
	for seed := 0; seed < 600; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 4 + r.Intn(20)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(nodeLabels[r.Intn(2)])
		}
		for i := r.Intn(4 * n); i > 0; i-- {
			g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), edgeLabels[r.Intn(2)])
		}
		g.Finalize()

		p := core.NewPattern()
		k := 2 + r.Intn(4)
		for i := 0; i < k; i++ {
			p.AddNode(fmt.Sprintf("u%d", i), nodeLabels[r.Intn(2)])
		}
		quant := func() core.Quantifier {
			switch r.Intn(5) {
			case 0:
				return core.Count(core.GE, 1+r.Intn(3))
			case 1:
				return core.Ratio(core.GE, 1+r.Intn(10000))
			case 2:
				return core.Universal()
			default:
				return core.Exists()
			}
		}
		for i := 1; i < k; i++ {
			p.AddEdge(fmt.Sprintf("u%d", r.Intn(i)), fmt.Sprintf("u%d", i), edgeLabels[r.Intn(2)], quant())
		}
		for extra := r.Intn(3); extra > 0; extra-- {
			a, b := r.Intn(k), r.Intn(k)
			if a != b {
				p.AddEdge(fmt.Sprintf("u%d", a), fmt.Sprintf("u%d", b), edgeLabels[r.Intn(2)], core.Exists())
			}
		}
		// Candidates does not require a valid pattern (the matcher
		// validates before compiling); refinement is defined regardless.
		if cyclic(p) {
			cycles++
		}
		if agree(t, g, p, fmt.Sprintf("seed %d", seed)) {
			kept++
		} else {
			empties++
		}
	}
	if cycles == 0 || empties == 0 || kept == 0 {
		t.Fatalf("coverage: %d cyclic patterns, %d emptied, %d with a non-empty fixpoint", cycles, empties, kept)
	}
}
