// Package fixture encodes the running examples of the paper — graphs G1
// and G2 of Figure 2 and patterns Q1..Q5 of Figures 1 and 3 — together
// with the answer sets the paper derives for them (Examples 3, 4, 6, 7).
// Tests across the repository assert against these known-good values.
// Mix is the one fixture not from the paper: the benchmark's pattern mix.
package fixture

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// G1 holds the social graph of Figure 2 (left) and handles to its nodes.
type G1 struct {
	G                  *graph.Graph
	X1, X2, X3         graph.NodeID
	V0, V1, V2, V3, V4 graph.NodeID
	Redmi              graph.NodeID
}

// NewG1 builds G1: x1 follows v0; x2 follows v1,v2; x3 follows v2,v3,v4;
// v0..v3 recommend Redmi 2A; v4 gives it a bad rating.
func NewG1() *G1 {
	g := graph.New(9)
	f := &G1{G: g}
	f.X1 = g.AddNode("person")
	f.X2 = g.AddNode("person")
	f.X3 = g.AddNode("person")
	f.V0 = g.AddNode("person")
	f.V1 = g.AddNode("person")
	f.V2 = g.AddNode("person")
	f.V3 = g.AddNode("person")
	f.V4 = g.AddNode("person")
	f.Redmi = g.AddNode("Redmi 2A")

	g.AddEdge(f.X1, f.V0, "follow")
	g.AddEdge(f.X2, f.V1, "follow")
	g.AddEdge(f.X2, f.V2, "follow")
	g.AddEdge(f.X3, f.V2, "follow")
	g.AddEdge(f.X3, f.V3, "follow")
	g.AddEdge(f.X3, f.V4, "follow")
	g.AddEdge(f.V0, f.Redmi, "recom")
	g.AddEdge(f.V1, f.Redmi, "recom")
	g.AddEdge(f.V2, f.Redmi, "recom")
	g.AddEdge(f.V3, f.Redmi, "recom")
	g.AddEdge(f.V4, f.Redmi, "bad_rating")
	g.Finalize()
	return f
}

// G2 holds the knowledge graph of Figure 2 (right).
type G2 struct {
	G                  *graph.Graph
	X4, X5, X6         graph.NodeID
	V5, V6, V7, V8, V9 graph.NodeID
	Prof, PhD, UK      graph.NodeID
}

// NewG2 builds G2: x4..x6 are professors in the UK; x4 advises v5,v6;
// x5 advises v6,v7; x6 advises v8,v9; v6..v9 are professors; v5..v9 hold
// PhDs; x4 also holds a PhD (and so violates Q4's negation).
func NewG2() *G2 {
	g := graph.New(12)
	f := &G2{G: g}
	f.X4 = g.AddNode("person")
	f.X5 = g.AddNode("person")
	f.X6 = g.AddNode("person")
	f.V5 = g.AddNode("person")
	f.V6 = g.AddNode("person")
	f.V7 = g.AddNode("person")
	f.V8 = g.AddNode("person")
	f.V9 = g.AddNode("person")
	f.Prof = g.AddNode("prof")
	f.PhD = g.AddNode("PhD")
	f.UK = g.AddNode("UK")

	for _, x := range []graph.NodeID{f.X4, f.X5, f.X6} {
		g.AddEdge(x, f.Prof, "is_a")
	}
	g.AddEdge(f.Prof, f.UK, "in")
	g.AddEdge(f.X4, f.PhD, "is_a")
	for _, v := range []graph.NodeID{f.V5, f.V6, f.V7, f.V8, f.V9} {
		g.AddEdge(v, f.PhD, "is_a")
	}
	for _, v := range []graph.NodeID{f.V6, f.V7, f.V8, f.V9} {
		g.AddEdge(v, f.Prof, "is_a")
	}
	g.AddEdge(f.X4, f.V5, "advisor")
	g.AddEdge(f.X4, f.V6, "advisor")
	g.AddEdge(f.X5, f.V6, "advisor")
	g.AddEdge(f.X5, f.V7, "advisor")
	g.AddEdge(f.X6, f.V8, "advisor")
	g.AddEdge(f.X6, f.V9, "advisor")
	g.Finalize()
	return f
}

// Q1 is the social-marketing QGP of Example 1: xo is in a music club and
// at least 80% of the people xo follows like album y.
func Q1() *core.Pattern {
	p := core.NewPattern()
	p.AddNode("xo", "person")
	p.AddNode("club", "music club")
	p.AddNode("z", "person")
	p.AddNode("y", "album")
	p.AddEdge("xo", "club", "in", core.Exists())
	p.AddEdge("xo", "z", "follow", core.RatioPercent(core.GE, 80))
	p.AddEdge("z", "y", "like", core.Exists())
	return p
}

// Q2 is the universal-quantification QGP: everyone xo follows recommends
// Redmi 2A.
func Q2() *core.Pattern {
	p := core.NewPattern()
	p.AddNode("xo", "person")
	p.AddNode("z", "person")
	p.AddNode("redmi", "Redmi 2A")
	p.AddEdge("xo", "z", "follow", core.Universal())
	p.AddEdge("z", "redmi", "recom", core.Exists())
	return p
}

// Q3 is the negation QGP: at least p followees recommend Redmi 2A and no
// followee gives it a bad rating.
func Q3(p int) *core.Pattern {
	q := core.NewPattern()
	q.AddNode("xo", "person")
	q.AddNode("z1", "person")
	q.AddNode("z2", "person")
	q.AddNode("redmi", "Redmi 2A")
	q.AddEdge("xo", "z1", "follow", core.Count(core.GE, p))
	q.AddEdge("z1", "redmi", "recom", core.Exists())
	q.AddEdge("xo", "z2", "follow", core.Negated())
	q.AddEdge("z2", "redmi", "bad_rating", core.Exists())
	return q
}

// Q4 is the knowledge-discovery QGP: UK professors without a PhD who
// advised at least p students who are themselves professors.
func Q4(p int) *core.Pattern {
	q := core.NewPattern()
	q.AddNode("xo", "person")
	q.AddNode("prof", "prof")
	q.AddNode("uk", "UK")
	q.AddNode("phd", "PhD")
	q.AddNode("z", "person")
	q.AddEdge("xo", "prof", "is_a", core.Exists())
	q.AddEdge("prof", "uk", "in", core.Exists())
	q.AddEdge("xo", "phd", "is_a", core.Negated())
	q.AddEdge("xo", "z", "advisor", core.Count(core.GE, p))
	q.AddEdge("z", "prof", "is_a", core.Exists())
	return q
}

// Q5 is the double-negation-free QGP with two negated edges on different
// paths: non-UK professors whose advisees are professors without PhDs.
func Q5() *core.Pattern {
	q := core.NewPattern()
	q.AddNode("xo", "person")
	q.AddNode("prof", "prof")
	q.AddNode("uk", "UK")
	q.AddNode("phd", "PhD")
	q.AddNode("z", "person")
	q.AddEdge("xo", "prof", "is_a", core.Exists())
	q.AddEdge("prof", "uk", "in", core.Negated())
	q.AddEdge("xo", "z", "advisor", core.Exists())
	q.AddEdge("z", "prof", "is_a", core.Exists())
	q.AddEdge("z", "phd", "is_a", core.Negated())
	return q
}

// Mix is the pattern mix pinned by the benchmark/ module's match workloads
// (a module of its own, so it keeps its own copy): one DSL pattern per
// quantifier family, over the labels of gen.Social graphs.
var Mix = []struct{ Name, DSL string }{
	{"numeric", "qgp\nn xo person *\nn z person\ne xo z follow >=3\n"},
	{"path2", "qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=2\ne z p recom >=1\n"},
	{"ratio", "qgp\nn xo person *\nn z person\nn y album\ne xo z follow >=30%\ne z y like\n"},
	{"negation", "qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p bad_rating =0\n"},
	{"selective", "qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=30\ne z p buy\n"},
	{"universal", "qgp\nn xo person *\nn z person\nn c city\ne xo z follow =100%\ne z c in\n"},
}
