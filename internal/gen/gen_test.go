package gen_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
)

func TestSmallWorldDeterministic(t *testing.T) {
	cfg := gen.SmallWorldConfig{Nodes: 500, Edges: 1500, Seed: 7}
	g1 := gen.SmallWorld(cfg)
	g2 := gen.SmallWorld(cfg)
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("SmallWorld is not deterministic in its seed")
	}
	if g1.NumNodes() != 500 {
		t.Fatalf("nodes = %d, want 500", g1.NumNodes())
	}
	if g1.NumEdges() < 1200 {
		t.Fatalf("edges = %d, want ≈1500 (some self-loops and duplicates dropped)", g1.NumEdges())
	}
	g3 := gen.SmallWorld(gen.SmallWorldConfig{Nodes: 500, Edges: 1500, Seed: 8})
	if g3.NumEdges() == g1.NumEdges() && eq(g3, g1) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func eq(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	for v := 0; v < a.NumNodes(); v++ {
		if a.NodeLabelName(graph.NodeID(v)) != b.NodeLabelName(graph.NodeID(v)) {
			return false
		}
		ae, be := a.Out(graph.NodeID(v)), b.Out(graph.NodeID(v))
		if len(ae) != len(be) {
			return false
		}
	}
	return true
}

func TestSocialShape(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(2000, 42))
	st := g.ComputeStats()
	if st.Nodes < 2000 {
		t.Fatalf("social graph too small: %v", st)
	}
	// Average degree should be within a factor of two of the configured
	// follow degree plus taste edges.
	if st.AvgDeg < 5 || st.AvgDeg > 40 {
		t.Fatalf("unrealistic average degree: %v", st)
	}
	for _, l := range []string{"person", "product", "album", "club", "city", "hobby"} {
		if len(g.NodesByLabelName(l)) == 0 {
			t.Errorf("no %s nodes", l)
		}
	}
	for _, l := range []string{"follow", "like", "recom", "buy", "in", "bad_rating"} {
		if g.LookupLabel(l) == graph.NoLabel {
			t.Errorf("no %s edges", l)
		}
	}
}

func TestKnowledgeShape(t *testing.T) {
	g := gen.Knowledge(gen.DefaultKnowledge(2000, 42))
	for _, l := range []string{"person", "university", "prize", "country", "prof", "PhD"} {
		if len(g.NodesByLabelName(l)) == 0 {
			t.Errorf("no %s nodes", l)
		}
	}
	for _, l := range []string{"advisor", "is_a", "won", "graduated_from", "citizen_of", "in"} {
		if g.LookupLabel(l) == graph.NoLabel {
			t.Errorf("no %s edges", l)
		}
	}
	// Knowledge graphs are sparser than social graphs.
	if st := g.ComputeStats(); st.AvgDeg > 10 {
		t.Fatalf("knowledge graph too dense: %v", st)
	}
}

func TestMineFeatures(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(1000, 1))
	feats := gen.MineFeatures(g)
	if len(feats) == 0 {
		t.Fatal("no features mined")
	}
	// (person, follow, person) must be the most frequent triple in a
	// social graph.
	top := feats[0]
	if top.Src != "person" || top.Edge != "follow" || top.Dst != "person" {
		t.Fatalf("top feature = %v, want person-follow-person", top)
	}
	for i := 1; i < len(feats); i++ {
		if feats[i].Count > feats[i-1].Count {
			t.Fatal("features not sorted by frequency")
		}
	}
}

func TestPatternGeneration(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(1000, 1))
	cfg := gen.PatternConfig{Nodes: 5, Edges: 7, RatioBP: 3000, NegEdges: 1, Seed: 3}
	p := gen.Pattern(g, cfg)
	if err := p.Validate(); err != nil {
		t.Fatalf("generated pattern invalid: %v\n%s", err, p)
	}
	if len(p.NegatedEdges()) != 1 {
		t.Fatalf("negated edges = %d, want 1\n%s", len(p.NegatedEdges()), p)
	}
	if pi, _ := p.Pi(); len(pi.Nodes) != 5 {
		t.Fatalf("positive part has %d nodes, want 5\n%s", len(pi.Nodes), p)
	}
	if len(p.QuantifiedEdges()) == 0 {
		t.Fatalf("no ratio quantifiers assigned\n%s", p)
	}

	// Determinism.
	p2 := gen.Pattern(g, cfg)
	if p.String() != p2.String() {
		t.Fatal("Pattern is not deterministic in its seed")
	}

	// Distinct seeds give distinct patterns (almost surely).
	ps := fixture.Patterns(g, cfg, 5)
	distinct := map[string]bool{}
	for _, q := range ps {
		distinct[q.String()] = true
	}
	if len(distinct) < 2 {
		t.Fatal("Patterns produced no variety")
	}
}

func TestGeneratedPatternsEvaluate(t *testing.T) {
	// Generated patterns must evaluate without error, and frequent-feature
	// seeding should make at least some of them non-empty.
	g := gen.Social(gen.DefaultSocial(1500, 11))
	ps := fixture.Patterns(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 3000, NegEdges: 1, Seed: 5}, 6)
	nonEmpty := 0
	for _, p := range ps {
		res, err := match.QMatch(g, p, nil)
		if err != nil {
			t.Fatalf("QMatch on generated pattern: %v\n%s", err, p)
		}
		if len(res.Matches) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("all generated patterns evaluated to empty answers")
	}
}

func TestPatternQuantifierPlacement(t *testing.T) {
	g := gen.Knowledge(gen.DefaultKnowledge(1500, 2))
	p := gen.Pattern(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 5000, NegEdges: 0, Seed: 9})
	for _, ei := range p.QuantifiedEdges() {
		if p.Edges[ei].From != p.Focus {
			t.Errorf("quantifier on non-focus edge %d", ei)
		}
		if p.Edges[ei].Q != core.Ratio(core.GE, 5000) {
			t.Errorf("quantifier = %v, want >=50%%", p.Edges[ei].Q)
		}
	}
}

func TestSampledPattern(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{Nodes: 400, Edges: 1200, Labels: 12, Seed: 5})
	for seed := int64(0); seed < 5; seed++ {
		p := gen.SampledPattern(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 3000, Seed: seed})
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(p.Nodes) < 2 || len(p.Edges) < 1 {
			t.Fatalf("seed %d: degenerate pattern %v", seed, p)
		}
		// Sampled patterns come from the graph, so their stratified
		// pattern matches somewhere by construction most of the time;
		// at minimum every label must exist in the graph.
		for _, n := range p.Nodes {
			if g.LookupLabel(n.Label) == graph.NoLabel {
				t.Fatalf("seed %d: label %q not in graph", seed, n.Label)
			}
		}
	}
}

func TestSampledPatternWithNegation(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{Nodes: 300, Edges: 900, Labels: 8, Seed: 9})
	p := gen.SampledPattern(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 3000, NegEdges: 1, Seed: 3})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.NegatedEdges()) != 1 {
		t.Fatalf("negated edges = %d, want 1", len(p.NegatedEdges()))
	}
}
