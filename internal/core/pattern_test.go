package core

import (
	"sort"
	"strings"
	"testing"
)

// q3 mirrors the paper's Q3 (declared locally: core cannot import fixture).
func q3(p int) *Pattern {
	q := NewPattern()
	q.AddNode("xo", "person")
	q.AddNode("z1", "person")
	q.AddNode("z2", "person")
	q.AddNode("redmi", "Redmi 2A")
	q.AddEdge("xo", "z1", "follow", Count(GE, p))
	q.AddEdge("z1", "redmi", "recom", Exists())
	q.AddEdge("xo", "z2", "follow", Negated())
	q.AddEdge("z2", "redmi", "bad_rating", Exists())
	return q
}

// q5 mirrors the paper's Q5 with two negated edges.
func q5() *Pattern {
	q := NewPattern()
	q.AddNode("xo", "person")
	q.AddNode("prof", "prof")
	q.AddNode("uk", "UK")
	q.AddNode("phd", "PhD")
	q.AddNode("z", "person")
	q.AddEdge("xo", "prof", "is_a", Exists())
	q.AddEdge("prof", "uk", "in", Negated())
	q.AddEdge("xo", "z", "advisor", Exists())
	q.AddEdge("z", "prof", "is_a", Exists())
	q.AddEdge("z", "phd", "is_a", Negated())
	return q
}

func names(p *Pattern) []string {
	var out []string
	for _, n := range p.Nodes {
		out = append(out, n.Name)
	}
	sort.Strings(out)
	return out
}

func TestBuildAndFocus(t *testing.T) {
	p := NewPattern()
	p.AddNode("a", "person")
	p.AddNode("b", "person")
	p.AddEdge("a", "b", "follow", Exists())
	if p.Nodes[p.Focus].Name != "a" {
		t.Fatalf("default focus = %q, want a", p.Nodes[p.Focus].Name)
	}
	p.SetFocus("b")
	if p.Nodes[p.Focus].Name != "b" {
		t.Fatalf("focus = %q, want b", p.Nodes[p.Focus].Name)
	}
	if n, e := len(p.Nodes), len(p.Edges); n != 2 || e != 1 {
		t.Fatalf("size = (%d,%d), want (2,1)", n, e)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node name")
		}
	}()
	p := NewPattern()
	p.AddNode("a", "x")
	p.AddNode("a", "y")
}

func TestNegatedEdges(t *testing.T) {
	q := q3(2)
	neg := q.NegatedEdges()
	if len(neg) != 1 || neg[0] != 2 {
		t.Fatalf("NegatedEdges = %v, want [2]", neg)
	}
	if q.IsPositive() {
		t.Error("q3 should be negative")
	}
	if qs := q.QuantifiedEdges(); len(qs) != 1 || qs[0] != 0 {
		t.Fatalf("QuantifiedEdges = %v, want [0]", qs)
	}
}

func TestPositify(t *testing.T) {
	q := q3(2)
	pos := q.Positify(2)
	if !pos.Edges[2].Q.IsExistential() {
		t.Fatal("Positify did not make the edge existential")
	}
	if !q.Edges[2].Q.IsNegation() {
		t.Fatal("Positify mutated the original")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic positifying a non-negated edge")
		}
	}()
	q.Positify(0)
}

func TestPiQ3(t *testing.T) {
	// Figure 3: Π(Q3) = xo -follow(≥p)-> z1 -recom-> Redmi; z2 removed.
	q := q3(2)
	pi, back := q.Pi()
	want := []string{"redmi", "xo", "z1"}
	if got := names(pi); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Π(Q3) nodes = %v, want %v", got, want)
	}
	if len(pi.Edges) != 2 {
		t.Fatalf("Π(Q3) edges = %d, want 2", len(pi.Edges))
	}
	if !pi.Edges[0].Q.Satisfied(2, 5) || pi.Edges[0].Q.Satisfied(1, 5) {
		t.Error("Π(Q3) lost the ≥2 quantifier on (xo,z1)")
	}
	if pi.Nodes[pi.Focus].Name != "xo" {
		t.Errorf("Π(Q3) focus = %q", pi.Nodes[pi.Focus].Name)
	}
	// back maps Π indexes to original indexes.
	for newIdx, oldIdx := range back {
		if pi.Nodes[newIdx].Name != q.Nodes[oldIdx].Name {
			t.Errorf("back mapping broken at %d", newIdx)
		}
	}
}

func TestPiPlusQ3(t *testing.T) {
	// Π(Q3+e) restores z2 and both of its edges.
	q := q3(2)
	pp, _ := q.PiPlus(2)
	want := []string{"redmi", "xo", "z1", "z2"}
	if got := names(pp); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Π(Q3+e) nodes = %v, want %v", got, want)
	}
	if len(pp.Edges) != 4 {
		t.Fatalf("Π(Q3+e) edges = %d, want 4", len(pp.Edges))
	}
}

func TestPiQ5(t *testing.T) {
	// Figure 3: Π(Q5) keeps xo, prof, z; removes UK and PhD.
	q := q5()
	pi, _ := q.Pi()
	want := []string{"prof", "xo", "z"}
	if got := names(pi); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Π(Q5) nodes = %v, want %v", got, want)
	}
	// Π(Q5+e1) restores UK only.
	pp1, _ := q.PiPlus(1)
	want1 := []string{"prof", "uk", "xo", "z"}
	if got := names(pp1); strings.Join(got, ",") != strings.Join(want1, ",") {
		t.Fatalf("Π(Q5+e1) nodes = %v, want %v", got, want1)
	}
	// Π(Q5+e2) restores PhD only.
	pp2, _ := q.PiPlus(4)
	want2 := []string{"phd", "prof", "xo", "z"}
	if got := names(pp2); strings.Join(got, ",") != strings.Join(want2, ",") {
		t.Fatalf("Π(Q5+e2) nodes = %v, want %v", got, want2)
	}
}

func TestPiPositiveIsIdentity(t *testing.T) {
	p := NewPattern()
	p.AddNode("a", "x")
	p.AddNode("b", "y")
	p.AddNode("c", "z")
	p.AddEdge("a", "b", "r", RatioPercent(GE, 50))
	p.AddEdge("c", "b", "s", Exists()) // mixed direction: b has in-edges from both
	pi, back := p.Pi()
	if len(pi.Nodes) != 3 || len(pi.Edges) != 2 {
		t.Fatalf("Π of positive pattern changed shape: %d nodes %d edges", len(pi.Nodes), len(pi.Edges))
	}
	for i := range back {
		if back[i] != i {
			t.Fatalf("identity mapping expected, got %v", back)
		}
	}
}

// TestRadius: a pattern without ratio edges needs its radius, the
// longest shortest undirected distance from the focus (§5.2).
func TestRadius(t *testing.T) {
	q := q3(2)
	if r := q.hops(); r != 2 {
		t.Fatalf("radius(Q3) = %d, want 2", r)
	}
	p := NewPattern()
	p.AddNode("a", "x")
	if r := p.hops(); r != 0 {
		t.Fatalf("radius(single node) = %d, want 0", r)
	}
}

func TestConnected(t *testing.T) {
	p := NewPattern()
	p.AddNode("a", "x")
	p.AddNode("b", "y")
	if p.Connected() {
		t.Error("two isolated nodes reported connected")
	}
	p.AddEdge("a", "b", "r", Exists())
	if !p.Connected() {
		t.Error("connected pattern reported disconnected")
	}
}

func TestValidateAcceptsPaperPatterns(t *testing.T) {
	for name, p := range map[string]*Pattern{"Q3": q3(2), "Q5": q5()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s should validate: %v", name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	empty := NewPattern()
	if err := empty.Validate(); err == nil {
		t.Error("empty pattern validated")
	}

	disc := NewPattern()
	disc.AddNode("a", "x")
	disc.AddNode("b", "y")
	if err := disc.Validate(); err == nil {
		t.Error("disconnected pattern validated")
	}

	selfLoop := NewPattern()
	selfLoop.AddNode("a", "x")
	selfLoop.Edges = append(selfLoop.Edges, PEdge{From: 0, To: 0, Label: "r", Q: Exists()})
	if err := selfLoop.Validate(); err == nil {
		t.Error("self-loop validated")
	}

	badQ := NewPattern()
	badQ.AddNode("a", "x")
	badQ.AddNode("b", "y")
	badQ.Edges = append(badQ.Edges, PEdge{From: 0, To: 1, Label: "r", Q: Ratio(GE, 0)})
	if err := badQ.Validate(); err == nil {
		t.Error("invalid quantifier validated")
	}

	// Double negation on one focus-anchored path.
	dn := NewPattern()
	dn.AddNode("xo", "x")
	dn.AddNode("a", "y")
	dn.AddNode("b", "z")
	dn.AddEdge("xo", "a", "r", Negated())
	dn.AddEdge("a", "b", "s", Negated())
	if err := dn.Validate(); err == nil {
		t.Error("double negation validated")
	}

	// Too many quantifiers on one path (l = 2).
	chain := NewPattern()
	chain.AddNode("xo", "x")
	chain.AddNode("a", "y")
	chain.AddNode("b", "z")
	chain.AddNode("c", "w")
	chain.AddEdge("xo", "a", "r", Count(GE, 2))
	chain.AddEdge("a", "b", "r", Count(GE, 2))
	chain.AddEdge("b", "c", "r", Count(GE, 2))
	if err := chain.Validate(); err == nil {
		t.Error("3 quantifiers on a path validated with l=2")
	}
	if err := chain.ValidateL(3); err != nil {
		t.Errorf("3 quantifiers should validate with l=3: %v", err)
	}
}

func TestDSLRoundTrip(t *testing.T) {
	for _, p := range []*Pattern{q3(2), q5()} {
		text := p.String()
		got, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(String()) failed: %v\n%s", err, text)
		}
		if got.String() != text {
			t.Fatalf("round trip mismatch:\n%s\nvs\n%s", text, got.String())
		}
	}
}

func TestParseDSL(t *testing.T) {
	p, err := Parse(`
# a comment
qgp
n xo person *
n z person
n r album
e xo z follow >=80%
e z r like
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes[p.Focus].Name != "xo" {
		t.Errorf("focus = %q", p.Nodes[p.Focus].Name)
	}
	if len(p.Nodes) != 3 || len(p.Edges) != 2 {
		t.Fatalf("parsed %d nodes %d edges", len(p.Nodes), len(p.Edges))
	}
	if p.Edges[0].Q != RatioPercent(GE, 80) {
		t.Errorf("edge 0 quantifier = %v", p.Edges[0].Q)
	}
	if !p.Edges[1].Q.IsExistential() {
		t.Errorf("edge 1 quantifier = %v", p.Edges[1].Q)
	}
}

func TestParseDSLErrors(t *testing.T) {
	bad := []string{
		"",                               // no header
		"n a x",                          // node before header
		"qgp\nn a",                       // short node line
		"qgp\nn a x\nn a y",              // duplicate node
		"qgp\nn a x +",                   // bad focus marker
		"qgp\nn a x *\nn b y *",          // two focus markers
		"qgp\nn a x\ne a b r",            // unknown node b
		"qgp\nn a x\nn b y\ne a b r =0%", // bad quantifier
		"qgp\nn a x\nn b y\ne a b",       // short edge line
		"qgp\nn a x\nn b y\nz",           // unknown record
		"qgp\nn a x\nn b y",              // disconnected (validation)
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}
