package match

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
)

func mixPattern(t testing.TB, i int) *core.Pattern {
	t.Helper()
	q, err := core.Parse(fixture.Mix[i].DSL)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestMixMetricsPinned: what an adjacency lookup or the candidate
// refinement costs is not the enumeration's business, so the work counters
// on the mix are the ones recorded at commit 0166b01, before the label-run
// index and the worklist, for QMatch and for the Enum oracle; and answers
// ascend without a final sort.
func TestMixMetricsPinned(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(500, 1))
	want := []struct {
		matches     int
		qmatch, enu Metrics
	}{
		{472,
			Metrics{FocusCandidates: 472, Verifications: 1416, Extensions: 1416, EarlyAccepts: 472},
			Metrics{FocusCandidates: 499, Verifications: 9032, Extensions: 9032, AcceptSearches: 499}},
		{479,
			Metrics{FocusCandidates: 479, Verifications: 1004, Extensions: 2237, EarlyAccepts: 479},
			Metrics{FocusCandidates: 496, Verifications: 7410, Extensions: 16562, AcceptSearches: 496}},
		{498,
			Metrics{FocusCandidates: 498, Verifications: 3383, Extensions: 7776, EarlyAccepts: 498},
			Metrics{FocusCandidates: 498, Verifications: 9539, Extensions: 22148, AcceptSearches: 498}},
		{237,
			Metrics{FocusCandidates: 761, Verifications: 761, Extensions: 2740, IncRuns: 1, IncCandidates: 499},
			Metrics{FocusCandidates: 761, Verifications: 761, Extensions: 2740}},
		{1,
			Metrics{FocusCandidates: 1, Verifications: 30, Extensions: 113, EarlyAccepts: 1},
			Metrics{FocusCandidates: 462, Verifications: 2673, Extensions: 11116, AcceptSearches: 462}},
		{499,
			Metrics{FocusCandidates: 499, Verifications: 8560, Extensions: 19793, EarlyAccepts: 499},
			Metrics{FocusCandidates: 499, Verifications: 9059, Extensions: 20971, AcceptSearches: 499}},
	}
	for i, w := range want {
		q := mixPattern(t, i)
		for _, run := range []struct {
			name string
			algo func(*graph.Graph, *core.Pattern, *Options) (*Result, error)
			want Metrics
		}{{"QMatch", QMatch, w.qmatch}, {"Enum", Enum, w.enu}} {
			res, err := run.algo(g, q, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", fixture.Mix[i].Name, run.name, err)
			}
			if res.Metrics != run.want {
				t.Errorf("%s/%s metrics = %+v, want %+v", fixture.Mix[i].Name, run.name, res.Metrics, run.want)
			}
			if len(res.Matches) != w.matches {
				t.Errorf("%s/%s: %d matches, want %d", fixture.Mix[i].Name, run.name, len(res.Matches), w.matches)
			}
			if !sort.SliceIsSorted(res.Matches, func(a, b int) bool { return res.Matches[a] < res.Matches[b] }) {
				t.Errorf("%s/%s: answers not ascending", fixture.Mix[i].Name, run.name)
			}
		}
	}
}

// staleGraph: x0 and x1 both follow z; z likes y1, y2 and x1. All nodes
// share one label, so injectivity hides x1 from itself: anchored at x0
// the realized children of z are {y1, y2, x1}, anchored at x1 — evaluated
// right after — the strict subset {y1, y2}.
func staleGraph() (g *graph.Graph, x1 graph.NodeID) {
	g = graph.New(5)
	x0 := g.AddNode("person")
	x1 = g.AddNode("person")
	z := g.AddNode("person")
	y1 := g.AddNode("person")
	y2 := g.AddNode("person")
	g.AddEdge(x0, z, "follow")
	g.AddEdge(x1, z, "follow")
	g.AddEdge(z, y1, "like")
	g.AddEdge(z, y2, "like")
	g.AddEdge(z, x1, "like")
	g.Finalize()
	return g, x1
}

func stalePattern(q core.Quantifier) *core.Pattern {
	p := core.NewPattern()
	p.AddNode("xo", "person")
	p.AddNode("z", "person")
	p.AddNode("y", "person")
	p.SetFocus("xo")
	p.AddEdge("xo", "z", "follow", core.Exists())
	p.AddEdge("z", "y", "like", q)
	return p
}

// Witness counts are per focus candidate: whatever holds them between
// candidates must not let one candidate read its predecessor's.
func TestCountsDoNotLeakAcrossCandidates(t *testing.T) {
	g, x1 := staleGraph()
	// x0 realizes 3 children of z, x1 realizes 2: a count inherited from
	// x0 would fail x1 under both quantifiers.
	assertMatches(t, g, stalePattern(core.Count(core.EQ, 2)), ids(x1))
	assertMatches(t, g, stalePattern(core.Count(core.LE, 2)), ids(x1))
}

func TestSubtractSorted(t *testing.T) {
	for _, c := range []struct{ a, b, want []graph.NodeID }{
		{ids(1, 3, 5, 7), ids(3, 4, 7), ids(1, 5)},
		{ids(1, 2), nil, ids(1, 2)},
		{ids(1, 2), ids(0, 1, 2, 9), ids()},
		{nil, ids(1), ids()},
	} {
		if got := subtractSorted(c.a, c.b); !(len(got) == 0 && len(c.want) == 0) && !reflect.DeepEqual(got, c.want) {
			t.Errorf("subtractSorted(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// FocusRestrict is caller input: an id outside the graph is an error that
// names it, on every entry point, never a panic inside the bitset.
func TestFocusRestrictOutOfRange(t *testing.T) {
	f := fixture.NewG1()
	g, p := f.G, fixture.Q2()
	for _, bad := range []graph.NodeID{-1, graph.NodeID(g.NumNodes())} {
		opts := &Options{FocusRestrict: []graph.NodeID{0, bad}}
		for name, algo := range algorithms {
			if _, err := algo(g, p, opts); err == nil || !strings.Contains(err.Error(), "FocusRestrict names node") {
				t.Errorf("%s with id %d: err = %v", name, bad, err)
			}
		}
	}
}
