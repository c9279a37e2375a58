package dynamic

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
)

func line(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(4)
	a := g.AddNode("A")
	b := g.AddNode("B")
	c := g.AddNode("C")
	g.AddEdge(a, b, "x")
	g.AddEdge(b, c, "y")
	g.Finalize()
	return g
}

func TestApplyAddEdge(t *testing.T) {
	g := line(t)
	ng, touched, err := Apply(g, []graph.Mutation{graph.AddEdge(2, 0, "z")})
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", ng.NumEdges())
	}
	if !ng.HasEdge(2, 0, ng.LookupLabel("z")) {
		t.Error("new edge missing")
	}
	if !reflect.DeepEqual(touched, []graph.NodeID{0, 2}) {
		t.Errorf("touched = %v, want [0 2]", touched)
	}
	// The original graph is untouched.
	if g.NumEdges() != 2 {
		t.Error("Apply mutated its input")
	}
}

func TestApplyRemoveEdgeAndNode(t *testing.T) {
	g := line(t)
	ng, touched, err := Apply(g, []graph.Mutation{graph.RemoveEdge(0, 1, "x")})
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", ng.NumEdges())
	}
	if !reflect.DeepEqual(touched, []graph.NodeID{0, 1}) {
		t.Errorf("touched = %v", touched)
	}

	ng2, touched2, err := Apply(g, []graph.Mutation{graph.Mutation{Op: graph.MutRemoveNode, From: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if ng2.NumEdges() != 0 {
		t.Fatalf("edges after isolation = %d, want 0", ng2.NumEdges())
	}
	if ng2.NumNodes() != 3 {
		t.Fatalf("node slots = %d, want 3", ng2.NumNodes())
	}
	// Former neighbors are touched.
	if !reflect.DeepEqual(touched2, []graph.NodeID{0, 1, 2}) {
		t.Errorf("touched = %v, want [0 1 2]", touched2)
	}
}

func TestApplyAddNodeAndConnect(t *testing.T) {
	g := line(t)
	ng, touched, err := Apply(g, []graph.Mutation{
		graph.AddNode("D"),
		graph.AddEdge(3, 0, "x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ng.NumNodes() != 4 || ng.NumEdges() != 3 {
		t.Fatalf("state = %d/%d, want 4/3", ng.NumNodes(), ng.NumEdges())
	}
	if ng.NodeLabelName(3) != "D" {
		t.Errorf("new node label = %q", ng.NodeLabelName(3))
	}
	if !reflect.DeepEqual(touched, []graph.NodeID{0, 3}) {
		t.Errorf("touched = %v", touched)
	}
}

func TestApplyInOrderSemantics(t *testing.T) {
	g := line(t)
	// Add then remove in the same batch: the edge must not exist.
	ng, _, err := Apply(g, []graph.Mutation{graph.AddEdge(2, 0, "z"), graph.RemoveEdge(2, 0, "z")})
	if err != nil {
		t.Fatal(err)
	}
	if ng.HasEdge(2, 0, ng.LookupLabel("z")) {
		t.Error("add-then-remove left the edge present")
	}
	// Remove then add: the edge must exist.
	ng2, _, err := Apply(g, []graph.Mutation{graph.RemoveEdge(0, 1, "x"), graph.AddEdge(0, 1, "x")})
	if err != nil {
		t.Fatal(err)
	}
	if !ng2.HasEdge(0, 1, ng2.LookupLabel("x")) {
		t.Error("remove-then-add dropped the edge")
	}
}

func TestApplyRejectsBadUpdates(t *testing.T) {
	g := line(t)
	for _, ups := range [][]graph.Mutation{
		{graph.AddEdge(0, 9, "x")},
		{graph.Mutation{Op: graph.MutRemoveNode, From: -1}},
		{{Op: 99}},
	} {
		if _, _, err := Apply(g, ups); err == nil {
			t.Errorf("Apply(%v) accepted", ups)
		}
	}
}

func TestAffectedWithin(t *testing.T) {
	g := line(t) // A-x->B-y->C
	// Touch node 2 (C): within 1 hop the affected set is {1, 2}.
	got := AffectedWithin(g, g, []graph.NodeID{2}, 1)
	if !reflect.DeepEqual(got, []graph.NodeID{1, 2}) {
		t.Errorf("1-hop affected = %v, want [1 2]", got)
	}
	// Within 2 hops everything is affected.
	got = AffectedWithin(g, g, []graph.NodeID{2}, 2)
	if !reflect.DeepEqual(got, []graph.NodeID{0, 1, 2}) {
		t.Errorf("2-hop affected = %v", got)
	}
	// Deleted reachability counts via the old graph: remove B's out-edge,
	// then nodes near C in the OLD graph must still be affected.
	ng, touched, err := Apply(g, []graph.Mutation{graph.RemoveEdge(1, 2, "y")})
	if err != nil {
		t.Fatal(err)
	}
	got = AffectedWithin(g, ng, touched, 1)
	if !reflect.DeepEqual(got, []graph.NodeID{0, 1, 2}) {
		t.Errorf("deletion affected = %v, want all", got)
	}
}

// step applies ups to vg and carries m over the batch, as every product
// caller does: the versioned core applies it once, the matcher follows.
func step(vg *graph.Versioned, m *Matcher, ups []graph.Mutation) (Delta, error) {
	old, err := vg.Apply(ups)
	if err != nil {
		return Delta{}, err
	}
	return m.ApplyShared(old, vg.Graph(), nil)
}

// buyPattern: people who buy at least 2 products.
func buyPattern() *core.Pattern {
	p := core.NewPattern()
	p.AddNode("x", "Person")
	p.AddNode("y", "Product")
	p.AddEdge("x", "y", "buy", core.Count(core.GE, 2))
	p.SetFocus("x")
	return p
}

func TestMatcherTracksQuantifierFlips(t *testing.T) {
	g := graph.New(4)
	pers := g.AddNode("Person")
	p1 := g.AddNode("Product")
	p2 := g.AddNode("Product")
	g.AddEdge(pers, p1, "buy")
	g.Finalize()

	vg := graph.NewVersioned(g)
	m, err := NewMatcher(vg.Graph(), buyPattern())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers()) != 0 {
		t.Fatalf("initial answers = %v, want none (only 1 buy)", m.Answers())
	}

	// Second buy edge flips the person in.
	d, err := step(vg, m, []graph.Mutation{graph.AddEdge(pers, p2, "buy")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Added, []graph.NodeID{pers}) || len(d.Removed) != 0 {
		t.Fatalf("delta = %+v, want person added", d)
	}
	if !reflect.DeepEqual(m.Answers(), []graph.NodeID{pers}) {
		t.Fatalf("answers = %v", m.Answers())
	}

	// Removing a buy edge flips them back out.
	d, err = step(vg, m, []graph.Mutation{graph.RemoveEdge(pers, p1, "buy")})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Removed, []graph.NodeID{pers}) {
		t.Fatalf("delta = %+v, want person removed", d)
	}
	if len(m.Answers()) != 0 {
		t.Fatalf("answers = %v, want none", m.Answers())
	}
}

func TestMatcherSkipsUnaffectedRegions(t *testing.T) {
	// Two far-apart communities; an update in one must not re-verify the
	// other.
	g := graph.New(40)
	var persons []graph.NodeID
	for c := 0; c < 2; c++ {
		p := g.AddNode("Person")
		persons = append(persons, p)
		for i := 0; i < 3; i++ {
			prod := g.AddNode("Product")
			g.AddEdge(p, prod, "buy")
		}
	}
	g.Finalize()

	vg := graph.NewVersioned(g)
	m, err := NewMatcher(vg.Graph(), buyPattern())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers()) != 2 {
		t.Fatalf("answers = %v, want both persons", m.Answers())
	}

	// Add a product bought by person 0 only.
	id := graph.NodeID(g.NumNodes())
	old, err := vg.Apply([]graph.Mutation{graph.AddNode("Product"), graph.AddEdge(persons[0], id, "buy")})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.ApplyShared(old, vg.Graph(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added)+len(d.Removed) != 0 {
		t.Fatalf("answers changed: %+v", d)
	}
	// The affected set must not include the second community's person.
	for _, v := range []graph.NodeID{persons[1]} {
		affected := AffectedWithin(old, m.Graph(), []graph.NodeID{persons[0], graph.NodeID(id)}, m.Hops())
		for _, a := range affected {
			if a == v {
				t.Fatalf("unaffected person %d re-verified (affected=%v)", v, affected)
			}
		}
	}
	if d.Affected >= m.Graph().NumNodes() {
		t.Fatalf("affected = %d, want a local set", d.Affected)
	}
}

// Differential soak: random update streams on a social graph — edge
// inserts and deletes, node births and tombstones; every standing pattern
// must always agree with full recomputation, maintained from its counts
// (where countable) and by a search over its advanced Bound alike. The
// last pattern has no answer at the start: persons like products, not each
// other, so its Bound begins from all-empty sets.
func TestMatcherDifferentialSoak(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(150, 9))
	pats := fixture.Patterns(g, gen.PatternConfig{Nodes: 3, Edges: 3, RatioBP: 3000, NegEdges: 1, Seed: 31}, 3)
	pats = append(pats, parsePattern(t, "qgp\nn xo person *\nn z person\ne xo z like\n"))
	if res, err := match.QMatch(g, pats[len(pats)-1], nil); err != nil || len(res.Matches) != 0 {
		t.Fatalf("the last pattern answers %v at the start (%v)", res, err)
	}
	r := rand.New(rand.NewSource(77))

	for pi, q := range pats {
		vg := graph.NewVersioned(g.Clone())
		counted, err := NewMatcher(vg.Graph(), q)
		if err != nil {
			t.Fatal(err)
		}
		ms := []*Matcher{searching(t, vg.Graph(), q)}
		if counted.counts != nil {
			ms = append(ms, counted)
		}
		cur, judged, found := vg.Graph(), 0, false
		for i := 0; i < 40; i++ {
			var ups []graph.Mutation
			for k := 0; k < 1+r.Intn(3); k++ {
				switch r.Intn(4) {
				case 0:
					ups = append(ups, graph.AddNode("person"))
				case 1:
					f := graph.NodeID(r.Intn(cur.NumNodes()))
					to := graph.NodeID(r.Intn(cur.NumNodes()))
					labels := []string{"follow", "like", "buy", "recom"}
					ups = append(ups, graph.AddEdge(f, to, labels[r.Intn(len(labels))]))
				case 2:
					// Remove a random existing edge when possible.
					v := graph.NodeID(r.Intn(cur.NumNodes()))
					if es := cur.Out(v); len(es) > 0 {
						e := es[r.Intn(len(es))]
						ups = append(ups, graph.RemoveEdge(v, e.To, cur.LabelName(e.Label)))
					}
				case 3:
					ups = append(ups, graph.Mutation{Op: graph.MutRemoveNode, From: graph.NodeID(r.Intn(cur.NumNodes()))})
				}
			}
			if len(ups) == 0 {
				continue
			}
			old, err := vg.Apply(ups)
			if err != nil {
				t.Fatalf("pattern %d step %d: %v", pi, i, err)
			}
			want, err := match.QMatch(cur, q, nil)
			if err != nil {
				t.Fatalf("recompute: %v", err)
			}
			found = found || len(want.Matches) > 0
			for _, m := range ms {
				d, err := m.ApplyShared(old, vg.Graph(), nil)
				if err != nil {
					t.Fatalf("pattern %d step %d: %v", pi, i, err)
				}
				judged += d.Affected
				if got := m.Answers(); !reflect.DeepEqual(got, want.Matches) && len(got)+len(want.Matches) > 0 {
					t.Fatalf("pattern %d step %d, counted=%v: incremental %v != recompute %v", pi, i, m.counts != nil, got, want.Matches)
				}
			}
		}
		if judged == 0 {
			t.Errorf("pattern %d: matchers never verified anything", pi)
		}
		if pi == len(pats)-1 && !found {
			t.Errorf("pattern %d never gained an answer", pi)
		}
	}
}
