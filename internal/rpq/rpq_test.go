package rpq

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"follow",
		"follow.follow",
		"follow|like",
		"follow*",
		"follow+",
		"follow?",
		"(follow|like).recom",
		"a.(b|c)*.d",
		"advisor.is_a",
	}
	for _, src := range cases {
		e, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		// Reparsing the AST rendering must succeed.
		if _, err := Parse(e.root.String()); err != nil {
			t.Errorf("reparse of %q AST %q: %v", src, e.root.String(), err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "(", "a|", "a.", "a)", "(a", "a..b", "*", "|a", "a$b",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestMatchWord(t *testing.T) {
	cases := []struct {
		expr string
		word []string
		want bool
	}{
		{"a", []string{"a"}, true},
		{"a", []string{"b"}, false},
		{"a", nil, false},
		{"a*", nil, true},
		{"a*", []string{"a", "a", "a"}, true},
		{"a+", nil, false},
		{"a+", []string{"a"}, true},
		{"a?", nil, true},
		{"a?", []string{"a", "a"}, false},
		{"a.b", []string{"a", "b"}, true},
		{"a.b", []string{"b", "a"}, false},
		{"a|b", []string{"b"}, true},
		{"(a|b).c", []string{"a", "c"}, true},
		{"(a|b).c", []string{"c"}, false},
		{"a.(b|c)*.d", []string{"a", "b", "c", "b", "d"}, true},
		{"a.(b|c)*.d", []string{"a", "d"}, true},
		{"a.(b|c)*.d", []string{"a", "x", "d"}, false},
	}
	for _, c := range cases {
		m := compile(MustParse(c.expr))
		if got := m.matchWord(c.word); got != c.want {
			t.Errorf("match(%q, %v) = %v, want %v", c.expr, c.word, got, c.want)
		}
	}
}

// chain builds a -f-> b -f-> c -g-> d.
func chain(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(4)
	a := g.AddNode("N")
	b := g.AddNode("N")
	c := g.AddNode("N")
	d := g.AddNode("N")
	g.AddEdge(a, b, "f")
	g.AddEdge(b, c, "f")
	g.AddEdge(c, d, "g")
	g.Finalize()
	return g
}

func TestReachChain(t *testing.T) {
	g := chain(t)
	cases := []struct {
		expr   string
		maxLen int
		want   []graph.NodeID
	}{
		{"f", 3, []graph.NodeID{1}},
		{"f.f", 3, []graph.NodeID{2}},
		{"f.f.g", 3, []graph.NodeID{3}},
		{"f.f.g", 2, nil}, // length bound cuts the walk
		{"f*", 3, []graph.NodeID{0, 1, 2}},
		{"f+", 3, []graph.NodeID{1, 2}},
		{"f*.g", 3, []graph.NodeID{3}},
		{"g", 3, nil},
	}
	for _, c := range cases {
		got := Reach(g, 0, MustParse(c.expr), c.maxLen)
		if !reflect.DeepEqual(got, c.want) && !(len(got) == 0 && len(c.want) == 0) {
			t.Errorf("Reach(%q, %d) = %v, want %v", c.expr, c.maxLen, got, c.want)
		}
	}
}

func TestReachCycleTerminates(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode("N")
	b := g.AddNode("N")
	g.AddEdge(a, b, "f")
	g.AddEdge(b, a, "f")
	g.Finalize()
	got := Reach(g, a, MustParse("f*"), 10)
	if !reflect.DeepEqual(got, []graph.NodeID{0, 1}) {
		t.Errorf("Reach on cycle = %v", got)
	}
	// Odd-length-only language on a 2-cycle: f.(f.f)* reaches only b.
	got = Reach(g, a, MustParse("f.(f.f)*"), 9)
	if !reflect.DeepEqual(got, []graph.NodeID{1}) {
		t.Errorf("odd-walk Reach = %v, want [1]", got)
	}
}

func TestReachAny(t *testing.T) {
	g := chain(t)
	if got := ReachAny(g, 0, 2); !reflect.DeepEqual(got, []graph.NodeID{1, 2}) {
		t.Errorf("ReachAny(0, 2) = %v", got)
	}
	if got := ReachAny(g, 0, 0); len(got) != 0 {
		t.Errorf("ReachAny(0, 0) = %v, want empty", got)
	}
	if got := ReachAny(g, 3, 5); len(got) != 0 {
		t.Errorf("ReachAny(sink) = %v, want empty", got)
	}
}

// naiveReach enumerates all directed walks up to maxLen and matches their
// words against the NFA — the executable specification for Reach.
func naiveReach(g *graph.Graph, src graph.NodeID, e *Expr, maxLen int) []graph.NodeID {
	m := compile(e)
	result := make(map[graph.NodeID]bool)
	var walk func(v graph.NodeID, word []string)
	walk = func(v graph.NodeID, word []string) {
		if m.matchWord(word) {
			result[v] = true
		}
		if len(word) == maxLen {
			return
		}
		for _, ge := range g.Out(v) {
			walk(ge.To, append(word, g.LabelName(ge.Label)))
		}
	}
	walk(src, nil)
	out := make([]graph.NodeID, 0, len(result))
	for v := range result {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestReachDifferentialSmallWorld(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{Nodes: 60, Edges: 150, Labels: 4, Seed: 3})
	// Edge labels in small-world graphs are l0..l3-style; discover two.
	var labels []string
	for vi := 0; vi < g.NumNodes() && len(labels) < 3; vi++ {
		for _, e := range g.Out(graph.NodeID(vi)) {
			name := g.LabelName(e.Label)
			dup := false
			for _, l := range labels {
				if l == name {
					dup = true
				}
			}
			if !dup {
				labels = append(labels, name)
			}
			if len(labels) == 3 {
				break
			}
		}
	}
	if len(labels) < 2 {
		t.Skip("not enough edge labels")
	}
	exprs := []string{
		labels[0],
		labels[0] + "." + labels[1],
		labels[0] + "|" + labels[1],
		"(" + labels[0] + "|" + labels[1] + ")*",
		labels[0] + "+",
		labels[0] + "." + labels[1] + "?",
	}
	for _, src := range exprs {
		e := MustParse(src)
		for _, maxLen := range []int{0, 1, 2, 3} {
			for vi := 0; vi < 20; vi++ {
				v := graph.NodeID(vi * 3 % g.NumNodes())
				got := Reach(g, v, e, maxLen)
				want := naiveReach(g, v, e, maxLen)
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("Reach(%q, v=%d, len=%d) = %v, want %v", src, v, maxLen, got, want)
				}
			}
		}
	}
}

func TestConstraintHoldsAndFilter(t *testing.T) {
	// Person 0 follows 3 accounts, person 4 follows 1.
	g := graph.New(8)
	p0 := g.AddNode("Person")
	for i := 0; i < 3; i++ {
		a := g.AddNode("Person")
		g.AddEdge(p0, a, "follow")
	}
	p4 := g.AddNode("Person")
	b := g.AddNode("Person")
	g.AddEdge(p4, b, "follow")
	g.Finalize()

	c := Constraint{Expr: MustParse("follow"), MaxLen: 1, Q: core.Count(core.GE, 2)}
	if !Holds(g, p0, c) {
		t.Error("p0 should satisfy ≥2 follows")
	}
	if Holds(g, p4, c) {
		t.Error("p4 should fail ≥2 follows")
	}
	got := Filter(g, []graph.NodeID{p0, p4}, c)
	if !reflect.DeepEqual(got, []graph.NodeID{p0}) {
		t.Errorf("Filter = %v, want [p0]", got)
	}
}

func TestConstraintRatio(t *testing.T) {
	// v reaches 4 nodes within 2 hops, 3 of them via follow-only walks.
	g := graph.New(6)
	v := g.AddNode("Person")
	a := g.AddNode("Person")
	bnode := g.AddNode("Person")
	c := g.AddNode("Person")
	d := g.AddNode("Person")
	g.AddEdge(v, a, "follow")
	g.AddEdge(a, bnode, "follow")
	g.AddEdge(v, c, "follow")
	g.AddEdge(v, d, "block") // reachable, but not via follow
	g.Finalize()

	con := Constraint{Expr: MustParse("follow.follow?"), MaxLen: 2, Q: core.RatioPercent(core.GE, 75)}
	if !Holds(g, v, con) {
		t.Error("3 of 4 = 75% should satisfy ≥75%")
	}
	con.Q = core.RatioPercent(core.GE, 80)
	if Holds(g, v, con) {
		t.Error("75% should fail ≥80%")
	}
}

func TestParseConstraint(t *testing.T) {
	c, err := ParseConstraint("follow.follow within 2 >=5")
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxLen != 2 || c.Q.IsRatio() || c.Q.N() != 5 {
		t.Errorf("constraint = %+v", c)
	}
	c, err = ParseConstraint("like|recom within 3 >=80%")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Q.IsRatio() || c.MaxLen != 3 {
		t.Errorf("constraint = %+v", c)
	}
	for _, bad := range []string{"", "follow", "follow within x >=5", "follow within -1 >=5", "$ within 2 >=5", "follow within 2 banana"} {
		if _, err := ParseConstraint(bad); err == nil {
			t.Errorf("ParseConstraint(%q) accepted", bad)
		}
	}
}

// Property: Reach is monotone in maxLen, and Reach ⊆ {src} ∪ ReachAny.
func TestReachMonotoneProperty(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(80, 21))
	e := MustParse("follow*.like?")
	f := func(vi uint16, l uint8) bool {
		v := graph.NodeID(int(vi) % g.NumNodes())
		maxLen := int(l) % 4
		small := Reach(g, v, e, maxLen)
		large := Reach(g, v, e, maxLen+1)
		inLarge := make(map[graph.NodeID]bool, len(large))
		for _, u := range large {
			inLarge[u] = true
		}
		for _, u := range small {
			if !inLarge[u] {
				return false
			}
		}
		anySet := make(map[graph.NodeID]bool)
		anySet[v] = true
		for _, u := range ReachAny(g, v, maxLen) {
			anySet[u] = true
		}
		for _, u := range small {
			if !anySet[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Parser robustness: arbitrary input never panics; it either parses (and
// the rendered AST reparses) or errors.
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		e, err := Parse(s)
		if err != nil {
			return true
		}
		_, err2 := Parse(e.root.String())
		return err2 == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Compile/match robustness on parseable random-ish expressions built from
// a small grammar sampler.
func TestCompiledMatcherTotality(t *testing.T) {
	exprs := []string{
		"a", "a.b.c", "(a|b)*", "a+.b?", "((a.b)|c)+", "a?.a?.a?",
	}
	words := [][]string{nil, {"a"}, {"b"}, {"a", "b"}, {"c", "a", "b"}, {"a", "a", "a", "a"}}
	for _, src := range exprs {
		m := compile(MustParse(src))
		for _, w := range words {
			_ = m.matchWord(w) // must not panic
		}
	}
}
