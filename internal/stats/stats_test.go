package stats

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// tiny builds the graph used by the hand-checked tests:
//
//	a0 -f-> b0, a0 -f-> b1, a1 -f-> b1, a1 -g-> c0
func tiny(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(5)
	a0 := g.AddNode("A")
	a1 := g.AddNode("A")
	b0 := g.AddNode("B")
	b1 := g.AddNode("B")
	c0 := g.AddNode("C")
	g.AddEdge(a0, b0, "f")
	g.AddEdge(a0, b1, "f")
	g.AddEdge(a1, b1, "f")
	g.AddEdge(a1, c0, "g")
	g.Finalize()
	return g
}

func triple(g *graph.Graph, src, edge, dst string) Triple {
	return Triple{Src: g.LookupLabel(src), Edge: g.LookupLabel(edge), Dst: g.LookupLabel(dst)}
}

func TestCollectCounts(t *testing.T) {
	g := tiny(t)
	s := Collect(g)
	if s.Nodes != 5 || s.Edges != 4 {
		t.Fatalf("Nodes=%d Edges=%d, want 5/4", s.Nodes, s.Edges)
	}
	if got := s.LabelCount[g.LookupLabel("A")]; got != 2 {
		t.Errorf("A count = %d, want 2", got)
	}
	if got := s.LabelCount[g.LookupLabel("B")]; got != 2 {
		t.Errorf("B count = %d, want 2", got)
	}
	if got := s.LabelCount[g.LookupLabel("C")]; got != 1 {
		t.Errorf("C count = %d, want 1", got)
	}
}

func TestCollectTriples(t *testing.T) {
	g := tiny(t)
	s := Collect(g)

	ts, ok := s.Triples[triple(g, "A", "f", "B")]
	if !ok {
		t.Fatal("A-f->B class missing")
	}
	if ts.Count != 3 || ts.SrcNodes != 2 || ts.DstNodes != 2 {
		t.Errorf("A-f->B = %+v, want Count=3 SrcNodes=2 DstNodes=2", ts)
	}

	ts, ok = s.Triples[triple(g, "A", "g", "C")]
	if !ok {
		t.Fatal("A-g->C class missing")
	}
	if ts.Count != 1 || ts.SrcNodes != 1 || ts.DstNodes != 1 {
		t.Errorf("A-g->C = %+v, want 1/1/1", ts)
	}

	if _, ok := s.Triples[triple(g, "B", "f", "A")]; ok {
		t.Error("B-f->A class should be absent")
	}
}

func TestCollectDegrees(t *testing.T) {
	g := tiny(t)
	s := Collect(g)
	if s.MaxOutDegree != 2 {
		t.Errorf("MaxOutDegree = %d, want 2", s.MaxOutDegree)
	}
	if s.MaxInDegree != 2 {
		t.Errorf("MaxInDegree = %d, want 2", s.MaxInDegree)
	}
}

// Property: triple counts sum to the edge count, label counts sum to the
// node count, and SrcNodes/DstNodes never exceed Count, on generated
// social graphs of varying size.
func TestCollectInvariantsProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		persons := 40 + int(sz)%160
		g := gen.Social(gen.DefaultSocial(persons, seed))
		s := Collect(g)
		if s.Nodes != g.NumNodes() || s.Edges != g.NumEdges() {
			return false
		}
		edgeSum, labelSum := 0, 0
		for _, ts := range s.Triples {
			edgeSum += ts.Count
			if ts.SrcNodes > ts.Count || ts.DstNodes > ts.Count {
				return false
			}
			if ts.SrcNodes < 1 || ts.DstNodes < 1 {
				return false
			}
		}
		for _, c := range s.LabelCount {
			labelSum += c
		}
		return edgeSum == s.Edges && labelSum == s.Nodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-class exact recount agrees with Collect on small-world
// graphs (full recomputation with naive per-node sets).
func TestCollectMatchesNaiveRecount(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{Nodes: 300, Edges: 1500, Labels: 8, Seed: 7})
	s := Collect(g)

	counts := make(map[Triple]int)
	srcs := make(map[Triple]map[graph.NodeID]bool)
	dsts := make(map[Triple]map[graph.NodeID]bool)
	for vi := 0; vi < g.NumNodes(); vi++ {
		v := graph.NodeID(vi)
		for _, e := range g.Out(v) {
			tr := Triple{Src: g.NodeLabel(v), Edge: e.Label, Dst: g.NodeLabel(e.To)}
			counts[tr]++
			if srcs[tr] == nil {
				srcs[tr] = map[graph.NodeID]bool{}
			}
			if dsts[tr] == nil {
				dsts[tr] = map[graph.NodeID]bool{}
			}
			srcs[tr][v] = true
			dsts[tr][e.To] = true
		}
	}
	if len(counts) != len(s.Triples) {
		t.Fatalf("class count %d != %d", len(s.Triples), len(counts))
	}
	for tr, c := range counts {
		ts := s.Triples[tr]
		if ts.Count != c || ts.SrcNodes != len(srcs[tr]) || ts.DstNodes != len(dsts[tr]) {
			t.Fatalf("class %+v: got %+v, want count=%d srcs=%d dsts=%d",
				tr, ts, c, len(srcs[tr]), len(dsts[tr]))
		}
	}
}
