package dynamic

// Soundness of the pattern-directed affected set. For every batch and
// every pattern:
//
//	answers(new) △ answers(old)  ⊆  ReachPlan.Affected  ⊆  AffectedWithin ball
//
// The left inclusion is what lets Matcher re-verify the reach alone; the
// right one says the reach never leaves the locality bound of Lemma 9.
// Beside both, the reach seeded from the batch's net edits must equal the
// reach seeded from a row diff of the touched nodes (rowDiffAffected).
// TestReachAffectedSound draws random small graphs with hub nodes and
// random batches; FuzzReachAffected drives the same checks from
// FuzzVersionedApply's byte decoder over its fixed host graph.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
)

// reachPatterns covers the quantifier families and the shapes the plan
// has to get right; labels are the ones reachGraph and fuzzBase use.
var reachPatterns = []struct{ name, dsl string }{
	{"numeric-ge", "qgp\nn xo person *\nn z person\ne xo z follow >=2\n"},
	{"numeric-le", "qgp\nn xo person *\nn z person\ne xo z follow <=2\n"},
	// Π(Q) is the bare focus: a created person answers at once.
	{"negation", "qgp\nn xo person *\nn z person\ne xo z follow =0\n"},
	// The denominator counts every follow edge of xo, whatever its target.
	{"ratio", "qgp\nn xo person *\nn z person\nn y product\ne xo z follow >=50%\ne z y like\n"},
	{"universal", "qgp\nn xo person *\nn z person\nn a album\ne xo z follow =100%\ne z a like\n"},
	{"path2", "qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=2\ne z p recom >=1\n"},
	// w's only short way to the focus is the negated edge, which Π(Q)
	// lacks: the rules for w's edges exist in Π(Q+e) alone.
	{"through-negated", "qgp\nn xo person *\nn z person\nn w product\nn a album\ne xo z follow\ne xo w like =0\ne w a recom\n"},
	// Every step back to the focus runs against the edge direction.
	{"inbound", "qgp\nn xo product *\nn z person\nn y person\ne z xo like\ne y z follow >=2\n"},
}

func parseReachPatterns(t testing.TB) []*core.Pattern {
	t.Helper()
	qs := make([]*core.Pattern, len(reachPatterns))
	for i, p := range reachPatterns {
		q, err := core.Parse(p.dsl)
		if err != nil {
			t.Fatalf("pattern %s: %v", p.name, err)
		}
		qs[i] = q
	}
	return qs
}

var (
	reachNodeLabels = []string{"person", "person", "person", "product", "album"}
	reachEdgeLabels = []string{"follow", "follow", "like", "recom"}
)

// reachGraph draws a small graph whose first person and first product are
// hubs: most edges start or end there, so the undirected ball around any
// update covers most of the graph.
func reachGraph(r *rand.Rand) *graph.Graph {
	n := 8 + r.Intn(14)
	g := graph.New(n)
	g.AddNode("person")
	g.AddNode("product")
	for i := 2; i < n; i++ {
		g.AddNode(reachNodeLabels[r.Intn(len(reachNodeLabels))])
	}
	for i := 0; i < 3*n; i++ {
		from, to := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		switch r.Intn(4) {
		case 0:
			from = 0
		case 1:
			to = graph.NodeID(r.Intn(2))
		}
		if from != to {
			g.AddEdge(from, to, reachEdgeLabels[r.Intn(len(reachEdgeLabels))])
		}
	}
	g.Finalize()            // rows are read once built
	g, _, _ = Apply(g, nil) // edge-set normalize
	return g
}

// reachBatch draws 1..5 ops: edge adds and removes (of existing edges when
// there are any), node adds (sometimes wired up in the same batch) and
// tombstones, hubs included.
func reachBatch(r *rand.Rand, g *graph.Graph) []graph.Mutation {
	n := graph.NodeID(g.NumNodes())
	var ups []graph.Mutation
	for k := 1 + r.Intn(5); k > 0; k-- {
		switch r.Intn(8) {
		case 0:
			ups = append(ups, graph.AddNode(reachNodeLabels[r.Intn(len(reachNodeLabels))]))
			if r.Intn(2) == 0 {
				ups = append(ups, graph.AddEdge(graph.NodeID(r.Int31n(int32(n))), n, reachEdgeLabels[r.Intn(len(reachEdgeLabels))]))
			}
			n++
		case 1:
			ups = append(ups, graph.Mutation{Op: graph.MutRemoveNode, From: graph.NodeID(r.Int31n(int32(n)))})
		case 2, 3, 4:
			v := graph.NodeID(r.Intn(g.NumNodes()))
			if out := g.Out(v); len(out) > 0 {
				e := out[r.Intn(len(out))]
				ups = append(ups, graph.RemoveEdge(v, e.To, g.LabelName(e.Label)))
			}
		default:
			ups = append(ups, graph.AddEdge(graph.NodeID(r.Int31n(int32(n))), graph.NodeID(r.Int31n(int32(n))), reachEdgeLabels[r.Intn(len(reachEdgeLabels))]))
		}
	}
	return ups
}

// checkReach applies ups to a copy of g and checks the two inclusions for
// q, and that the reach seeded from the batch's net edits equals the one
// rowDiffAffected seeds by comparing rows, over the rebuild oracle's graphs
// (whose new graph has its own label ids). It reports how many answers
// flipped and the sizes of the reach and the ball; ok is false for a
// rejected batch.
func checkReach(t *testing.T, g *graph.Graph, q *core.Pattern, ups []graph.Mutation) (flips, reach, ball int, ok bool) {
	t.Helper()
	vg := graph.NewVersioned(g.Clone())
	old, err := vg.Apply(ups)
	if err != nil {
		return 0, 0, 0, false
	}
	rebuilt, touched, err := Apply(g, ups)
	if err != nil {
		t.Fatalf("oracle rejected a batch the versioned core took: %v", err)
	}
	ng := vg.Graph()
	plan := NewReachPlan(q)
	got := plan.Affected(old, ng, old.Edits())
	bound := AffectedWithin(old, ng, touched, core.RequiredHops(q))
	if want := rowDiffAffected(plan, g, rebuilt, touched); !reflect.DeepEqual(got, want) {
		t.Fatalf("reach from the edits %v, from the row diff %v (batch %+v)", got, want, ups)
	}

	in := func(set []graph.NodeID) map[graph.NodeID]bool {
		m := make(map[graph.NodeID]bool, len(set))
		for _, v := range set {
			m[v] = true
		}
		return m
	}
	reached, bounded := in(got), in(bound)
	for _, v := range got {
		if !bounded[v] {
			t.Fatalf("reach %v leaves the %d-hop ball %v at node %d (batch %+v)", got, core.RequiredHops(q), bound, v, ups)
		}
	}
	before, err := match.QMatch(g, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	after, err := match.QMatch(ng, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	was, is := in(before.Matches), in(after.Matches)
	for v := 0; v < ng.NumNodes(); v++ {
		id := graph.NodeID(v)
		if was[id] == is[id] {
			continue
		}
		flips++
		if !reached[id] {
			t.Fatalf("node %d flipped (answer before %v, after %v) outside the reach %v (touched %v, batch %+v)",
				v, was[id], is[id], got, touched, ups)
		}
	}
	return flips, len(got), len(bound), true
}

func TestReachAffectedSound(t *testing.T) {
	qs := parseReachPatterns(t)
	for pi, q := range qs {
		pi, q := pi, q
		t.Run(reachPatterns[pi].name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(1000 + pi)))
			var flips, reach, ball int
			for round := 0; round < 400; round++ {
				g := reachGraph(r)
				f, a, b, ok := checkReach(t, g, q, reachBatch(r, g))
				if !ok {
					t.Fatalf("round %d: generated batch rejected", round)
				}
				flips, reach, ball = flips+f, reach+a, ball+b
			}
			// The check is only worth something when answers do flip,
			// and the plan only when it beats the ball.
			if flips == 0 {
				t.Fatal("no answer ever flipped: the generator does not exercise this pattern")
			}
			if reach*2 > ball {
				t.Errorf("reach %d is not well below the ball %d on hub graphs", reach, ball)
			}
			t.Logf("flips=%d reach=%d ball=%d", flips, reach, ball)
		})
	}
}

// rowDiffAffected is the reach plan seeded the long way, the oracle
// checkReach holds Affected against: every touched node's rows of a rule's
// label are compared across the batch, and a node that lost an edge seeds
// the walk over old, one that gained an edge over newG. Labels resolve per
// graph, so old and newG may have interners of their own.
func rowDiffAffected(p *ReachPlan, old, newG graph.View, touched []graph.NodeID) []graph.NodeID {
	dst := make(map[graph.NodeID]bool)
	for _, v := range touched {
		if int(v) >= old.NumNodes() && newG.NodeLabelName(v) == p.focus {
			dst[v] = true
		}
	}
	// missing reports whether some endpoint of run a is absent from run b.
	missing := func(a, b []graph.Edge) bool {
		for _, e := range a {
			if !slices.ContainsFunc(b, func(f graph.Edge) bool { return f.To == e.To }) {
				return true
			}
		}
		return false
	}
	for _, r := range p.rules {
		lo, ln := old.LookupLabel(r.edge), newG.LookupLabel(r.edge)
		var lost, gained []graph.NodeID
		for _, a := range touched {
			if newG.NodeLabelName(a) != r.src {
				continue
			}
			var was []graph.Edge
			if int(a) < old.NumNodes() {
				was = labelRun(old.Out(a), lo)
			}
			now := labelRun(newG.Out(a), ln)
			if missing(was, now) {
				lost = append(lost, a)
			}
			if missing(now, was) {
				gained = append(gained, a)
			}
		}
		walk(dst, old, lost, r.path)
		walk(dst, newG, gained, r.path)
	}
	return sortedNodeSet(dst)
}

// TestReachPlanRules pins the compiled form: which changed edges seed a
// walk, and along what.
func TestReachPlanRules(t *testing.T) {
	q, err := core.Parse(reachPatterns[6].dsl) // through-negated
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%+v", NewReachPlan(q).rules)
	want := fmt.Sprintf("%+v", []reachRule{
		{src: "person", edge: "follow"},
		{src: "person", edge: "like"},
		{src: "product", edge: "recom", path: []reachStep{{edge: "like", out: false, node: "person"}}},
	})
	if got != want {
		t.Fatalf("rules = %s\nwant    %s", got, want)
	}
}

// reachSeeds are the batches, in decodeBatch's bytes, that the fuzzers over
// fuzzBase start from.
var reachSeeds = [][]byte{
	{1, 2, 5},                            // AddEdge 0->5 follow
	{2, 2, 3},                            // RemoveEdge 0->3
	{3, 5, 0},                            // RemoveNode 3, a person on the ring
	{0, 0, 3},                            // AddNode person
	{0, 0, 3, 1, 14, 1},                  // AddNode person, then an edge onto it
	{1, 3, 4, 0, 0, 1, 2, 4, 2, 3, 6, 0}, // mixed batch
	{2, 5, 4, 1, 5, 6, 3, 8, 0},          // remove + add + tombstone around node 3
}

func FuzzReachAffected(f *testing.F) {
	for _, s := range reachSeeds {
		f.Add(s)
	}

	qs := parseReachPatterns(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ups := decodeBatch(data)
		if len(ups) == 0 {
			t.Skip()
		}
		base := fuzzBase()
		for _, q := range qs {
			if _, _, _, ok := checkReach(t, base, q, ups); !ok {
				return // invalid batch: rejected before any affected set exists
			}
		}
	})
}
