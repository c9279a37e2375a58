package match

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/graph"
)

// algorithms under differential test. Each must implement the exact
// semantics of §2.2.
var algorithms = map[string]func(*graph.Graph, *core.Pattern, *Options) (*Result, error){
	"QMatch":  QMatch,
	"QMatchN": QMatchN,
	"Enum":    Enum,
}

func ids(vs ...graph.NodeID) []graph.NodeID { return vs }

func assertMatches(t *testing.T, g *graph.Graph, q *core.Pattern, want []graph.NodeID) {
	t.Helper()
	for name, algo := range algorithms {
		res, err := algo(g, q, nil)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got := res.Matches
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	ref, err := Reference(g, q)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	if !(len(ref) == 0 && len(want) == 0) && !reflect.DeepEqual(ref, want) {
		t.Errorf("Reference = %v, want %v", ref, want)
	}
}

// --- Paper examples -----------------------------------------------------

func TestQ2OnG1(t *testing.T) {
	// Example 3: Q2(xo, G1) = {x1, x2}; x3 fails the universal quantifier.
	f := fixture.NewG1()
	assertMatches(t, f.G, fixture.Q2(), ids(f.X1, f.X2))
}

func TestPiQ3OnG1(t *testing.T) {
	// Example 4: Π(Q3)(xo, G1) = {x2, x3} for p=2; x1 has only one
	// recommending followee.
	f := fixture.NewG1()
	pi, _ := fixture.Q3(2).Pi()
	assertMatches(t, f.G, pi, ids(f.X2, f.X3))
}

func TestQ3OnG1(t *testing.T) {
	// Example 4: Q3(xo, G1) = {x2}; x3 follows v4 who bad-rated Redmi 2A.
	f := fixture.NewG1()
	assertMatches(t, f.G, fixture.Q3(2), ids(f.X2))
}

func TestQ3PositifiedOnG1(t *testing.T) {
	// Example 4: Π(Q3+e)(xo, G1) = {x3}.
	f := fixture.NewG1()
	pp, _ := fixture.Q3(2).PiPlus(2)
	assertMatches(t, f.G, pp, ids(f.X3))
}

func TestQ4OnG2(t *testing.T) {
	// Example 4: Q4(xo, G2) = {x5, x6} for p=2; x4 is excluded by the
	// negation on (xo, PhD).
	f := fixture.NewG2()
	assertMatches(t, f.G, fixture.Q4(2), ids(f.X5, f.X6))
}

func TestQ4OnG2HighP(t *testing.T) {
	// With p=3 no professor has enough advisees.
	f := fixture.NewG2()
	assertMatches(t, f.G, fixture.Q4(3), nil)
}

func TestQ5OnG2(t *testing.T) {
	// All professors in G2 are in the UK, so the non-UK pattern Q5 finds
	// nothing.
	f := fixture.NewG2()
	assertMatches(t, f.G, fixture.Q5(), nil)
}

func TestQ1(t *testing.T) {
	// Q1 on a small custom graph: u0 in a music club with 4 followees, 3
	// of whom (75%) like the album — below 80%; u1 with 4 of 5 (80%) — a
	// match.
	g := graph.New(16)
	club := g.AddNode("music club")
	album := g.AddNode("album")
	u0 := g.AddNode("person")
	u1 := g.AddNode("person")
	g.AddEdge(u0, club, "in")
	g.AddEdge(u1, club, "in")
	for i := 0; i < 4; i++ {
		z := g.AddNode("person")
		g.AddEdge(u0, z, "follow")
		if i < 3 {
			g.AddEdge(z, album, "like")
		}
	}
	for i := 0; i < 5; i++ {
		z := g.AddNode("person")
		g.AddEdge(u1, z, "follow")
		if i < 4 {
			g.AddEdge(z, album, "like")
		}
	}
	g.Finalize()
	assertMatches(t, g, fixture.Q1(), ids(u1))
}

// --- API behaviour ------------------------------------------------------

func TestFocusRestrict(t *testing.T) {
	f := fixture.NewG1()
	res, err := QMatch(f.G, fixture.Q2(), &Options{FocusRestrict: ids(f.X2, f.X3)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Matches, ids(f.X2)) {
		t.Fatalf("restricted matches = %v, want [x2]", res.Matches)
	}
}

// TestFocusRestrictNilAndEmpty pins the one restriction rule: nil asks
// about every node, a non-nil empty list about nobody — a fragment that
// materialises nodes and owns none must answer nothing.
func TestFocusRestrictNilAndEmpty(t *testing.T) {
	f := fixture.NewG1()
	q := fixture.Q3(2) // has a negated edge: Π(Q) and Π(Q+e) both evaluated
	for name, algo := range algorithms {
		all, err := algo(f.G, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(all.Matches) == 0 {
			t.Fatalf("%s: fixture pattern has no answer; the test checks nothing", name)
		}
		everyone, err := algo(f.G, q, &Options{FocusRestrict: nil, CollectProfile: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(everyone.Matches, all.Matches) {
			t.Errorf("%s: nil FocusRestrict = %v, unrestricted = %v", name, everyone.Matches, all.Matches)
		}
		nobody, err := algo(f.G, q, &Options{FocusRestrict: []graph.NodeID{}, CollectProfile: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(nobody.Matches) != 0 || nobody.Metrics != (Metrics{}) {
			t.Errorf("%s: empty FocusRestrict = %v with metrics %+v, want no answer and no work", name, nobody.Matches, nobody.Metrics)
		}
		if nobody.Profile == nil || len(nobody.Profile.Patterns) != 0 {
			t.Errorf("%s: empty FocusRestrict profile = %+v, want an empty profile, not a nil one", name, nobody.Profile)
		}
	}
}

func TestInvalidPatternRejected(t *testing.T) {
	f := fixture.NewG1()
	bad := core.NewPattern()
	bad.AddNode("a", "person")
	bad.AddNode("b", "person")
	// disconnected
	for name, algo := range algorithms {
		if _, err := algo(f.G, bad, nil); err == nil {
			t.Errorf("%s accepted an invalid pattern", name)
		}
	}
}

func TestAbsentLabels(t *testing.T) {
	f := fixture.NewG1()
	p := core.NewPattern()
	p.AddNode("xo", "martian")
	p.AddNode("z", "person")
	p.AddEdge("xo", "z", "follow", core.Exists())
	assertMatches(t, f.G, p, nil)

	p2 := core.NewPattern()
	p2.AddNode("xo", "person")
	p2.AddNode("z", "person")
	p2.AddEdge("xo", "z", "teleport", core.Exists())
	assertMatches(t, f.G, p2, nil)
}

func TestSingleNodePattern(t *testing.T) {
	f := fixture.NewG1()
	p := core.NewPattern()
	p.AddNode("xo", "Redmi 2A")
	assertMatches(t, f.G, p, ids(f.Redmi))
}

func TestNumericEQQuantifier(t *testing.T) {
	// Exactly 2 recommending followees: x2 (v1, v2) and x3 (v2, v3)
	// qualify; x1 has 1.
	f := fixture.NewG1()
	p := core.NewPattern()
	p.AddNode("xo", "person")
	p.AddNode("z", "person")
	p.AddNode("r", "Redmi 2A")
	p.AddEdge("xo", "z", "follow", core.Count(core.EQ, 2))
	p.AddEdge("z", "r", "recom", core.Exists())
	assertMatches(t, f.G, p, ids(f.X2, f.X3))
}

func TestMetricsPopulated(t *testing.T) {
	f := fixture.NewG1()
	res, err := QMatch(f.G, fixture.Q3(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Verifications == 0 || m.Extensions == 0 {
		t.Errorf("metrics not populated: %+v", m)
	}
	if m.IncRuns != 1 {
		t.Errorf("IncRuns = %d, want 1 (one negated edge)", m.IncRuns)
	}

	var sum Metrics
	sum.Add(m)
	sum.Add(m)
	if sum.Verifications != 2*m.Verifications {
		t.Error("Metrics.Add is broken")
	}
}

func TestIncQMatchDoesLessWork(t *testing.T) {
	// On Q3, IncQMatch restricts the positified evaluation to the cached
	// Π(Q3) matches, so QMatch must not verify more than QMatchN.
	f := fixture.NewG1()
	rq, err := QMatch(f.G, fixture.Q3(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := QMatchN(f.G, fixture.Q3(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rq.Matches, rn.Matches) {
		t.Fatalf("QMatch=%v QMatchN=%v", rq.Matches, rn.Matches)
	}
	if rq.Metrics.FocusCandidates > rn.Metrics.FocusCandidates {
		t.Errorf("IncQMatch examined more focus candidates (%d) than recompute (%d)",
			rq.Metrics.FocusCandidates, rn.Metrics.FocusCandidates)
	}
}
