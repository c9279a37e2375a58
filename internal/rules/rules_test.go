package rules

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// r1Graph builds a graph for an R1-style rule (Q1 of the paper's Fig. 7:
// club membership plus ≥80% followee album taste ⇒ buy):
//   - buyer: in club, 4/5 followees like the album, buys it;
//   - holdout: same antecedent but no buy edge (a true negative: it has
//     another buy edge, so LCWA keeps it in Xo);
//   - unknown: same antecedent, no buy information at all (excluded from
//     Xo under LCWA).
func r1Graph() (*graph.Graph, graph.NodeID, graph.NodeID, graph.NodeID) {
	g := graph.New(32)
	club := g.AddNode("club")
	album := g.AddNode("album")
	other := g.AddNode("product")
	mk := func(buys, hasOtherBuy bool) graph.NodeID {
		p := g.AddNode("person")
		g.AddEdge(p, club, "in")
		for i := 0; i < 5; i++ {
			z := g.AddNode("person")
			g.AddEdge(p, z, "follow")
			if i < 4 {
				g.AddEdge(z, album, "like")
			}
		}
		if buys {
			g.AddEdge(p, album, "buy")
		}
		if hasOtherBuy {
			g.AddEdge(p, other, "buy")
		}
		return p
	}
	buyer := mk(true, false)
	holdout := mk(false, true)
	unknown := mk(false, false)
	g.Finalize()
	return g, buyer, holdout, unknown
}

func r1Rule(t *testing.T) *QGAR {
	t.Helper()
	q1 := core.NewPattern()
	q1.AddNode("xo", "person")
	q1.AddNode("club", "club")
	q1.AddNode("z", "person")
	q1.AddNode("y", "album")
	q1.AddEdge("xo", "club", "in", core.Exists())
	q1.AddEdge("xo", "z", "follow", core.RatioPercent(core.GE, 80))
	q1.AddEdge("z", "y", "like", core.Exists())

	q2 := core.NewPattern()
	q2.AddNode("xo", "person")
	q2.AddNode("y", "album")
	q2.AddEdge("xo", "y", "buy", core.Exists())

	r, err := New("R1", q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestR1SupportAndConfidence(t *testing.T) {
	g, buyer, holdout, unknown := r1Graph()
	r := r1Rule(t)
	ev, err := r.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev.Matches, []graph.NodeID{buyer}) {
		t.Fatalf("matches = %v, want [%d]", ev.Matches, buyer)
	}
	if ev.Support != 1 {
		t.Fatalf("support = %d, want 1", ev.Support)
	}
	// Antecedent holds for all three; Xo keeps buyer and holdout (both
	// have buy edges recorded) and drops unknown (LCWA).
	if ev.XoSize != 2 {
		t.Fatalf("XoSize = %d, want 2 (buyer + holdout, not %d)", ev.XoSize, unknown)
	}
	if ev.Confidence != 0.5 {
		t.Fatalf("confidence = %f, want 0.5", ev.Confidence)
	}
	_ = holdout
}

func TestIdentifyThreshold(t *testing.T) {
	g, buyer, _, _ := r1Graph()
	r := r1Rule(t)
	got, err := r.Identify(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []graph.NodeID{buyer}) {
		t.Fatalf("Identify(0.5) = %v", got)
	}
	got, err = r.Identify(g, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("Identify(0.9) = %v, want nil (confidence below threshold)", got)
	}
}

func TestNewValidation(t *testing.T) {
	single := func(label string) *core.Pattern {
		p := core.NewPattern()
		p.AddNode("xo", label)
		p.AddNode("y", "album")
		p.AddEdge("xo", "y", "buy", core.Exists())
		return p
	}
	// Focus label mismatch.
	if _, err := New("bad", single("person"), single("robot")); err == nil {
		t.Error("focus mismatch accepted")
	}
	// Shared edge.
	if _, err := New("bad", single("person"), single("person")); err == nil {
		t.Error("shared edge accepted")
	}
	// Empty consequent.
	empty := core.NewPattern()
	empty.AddNode("xo", "person")
	if _, err := New("bad", single("person"), empty); err == nil {
		t.Error("empty consequent accepted")
	}
}

func TestNegativeConsequent(t *testing.T) {
	// R2-style: antecedent ⇒ xo does NOT buy the album.
	g, buyer, holdout, _ := r1Graph()
	q1 := r1Rule(t).Antecedent

	q2 := core.NewPattern()
	q2.AddNode("xo", "person")
	q2.AddNode("y", "album")
	q2.AddEdge("xo", "y", "buy", core.Negated())
	r, err := New("R2", q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := r.Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	// holdout does not buy the album (only the other product): a match.
	// buyer does buy it: excluded.
	for _, v := range ev.Matches {
		if v == buyer {
			t.Fatal("negative-consequent rule matched the buyer")
		}
	}
	found := false
	for _, v := range ev.Matches {
		if v == holdout {
			found = true
		}
	}
	if !found {
		t.Fatal("negative-consequent rule missed the holdout")
	}
	if ev.Confidence <= 0 || ev.Confidence > 1 {
		t.Fatalf("confidence = %f out of range", ev.Confidence)
	}
}

// Lemma 10 (anti-monotonicity): increasing p in a positive quantifier
// never increases support; adding an edge to Q1 never increases support.
func TestSupportAntiMonotone(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(700, 13))
	mkRule := func(bp int, extraEdge bool) *QGAR {
		q1 := core.NewPattern()
		q1.AddNode("xo", "person")
		q1.AddNode("z", "person")
		q1.AddNode("y", "album")
		q1.AddEdge("xo", "z", "follow", core.Ratio(core.GE, bp))
		q1.AddEdge("z", "y", "like", core.Exists())
		if extraEdge {
			q1.AddNode("c", "city")
			q1.AddEdge("xo", "c", "in", core.Exists())
		}
		q2 := core.NewPattern()
		q2.AddNode("xo", "person")
		q2.AddNode("p", "product")
		q2.AddEdge("xo", "p", "buy", core.Exists())
		r, err := New("anti", q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	supports := make([]int, 0, 4)
	for _, bp := range []int{2000, 5000, 8000} {
		ev, err := mkRule(bp, false).Evaluate(g)
		if err != nil {
			t.Fatal(err)
		}
		supports = append(supports, ev.Support)
	}
	for i := 1; i < len(supports); i++ {
		if supports[i] > supports[i-1] {
			t.Fatalf("support grew with stricter ratio: %v", supports)
		}
	}
	evBase, err := mkRule(2000, false).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	evExt, err := mkRule(2000, true).Evaluate(g)
	if err != nil {
		t.Fatal(err)
	}
	if evExt.Support > evBase.Support {
		t.Fatalf("support grew after adding an edge: %d > %d", evExt.Support, evBase.Support)
	}
}

func TestMineFindsCommunityRules(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(900, 21))
	mined, err := Mine(g, MineConfig{MinSupport: 5, MinConfidence: 0.3, MaxRules: 5, StartRatioBP: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) == 0 {
		t.Fatal("miner found no rules on a community-structured social graph")
	}
	for _, mr := range mined {
		if mr.Eval.Support < 5 || mr.Eval.Confidence < 0.3 {
			t.Errorf("rule %s below thresholds: supp=%d conf=%f",
				mr.Rule.Name, mr.Eval.Support, mr.Eval.Confidence)
		}
	}
	// Sorted by lift (tautology-resistant ranking).
	for i := 1; i < len(mined); i++ {
		if mined[i].Eval.Lift > mined[i-1].Eval.Lift {
			t.Fatal("mined rules not sorted by lift")
		}
	}
}
