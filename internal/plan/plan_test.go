package plan

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/stats"
)

// hubGraph: one Person follows many Bots; Bots each like one Product.
// Matching from Person via follow explodes (fan 50); matching the Product
// side first is cheap. The planner should bind product before bot... but
// connectivity forces bot after person or product; the key check is that
// the planner prefers the low-fan anchor.
func hubGraph() *graph.Graph {
	g := graph.New(60)
	p := g.AddNode("Person")
	prod := g.AddNode("Product")
	for i := 0; i < 50; i++ {
		b := g.AddNode("Bot")
		g.AddEdge(p, b, "follow")
		if i == 0 {
			g.AddEdge(b, prod, "like")
		}
	}
	g.Finalize()
	return g
}

func hubPattern() *core.Pattern {
	p := core.NewPattern()
	p.AddNode("x", "Person")
	p.AddNode("z", "Bot")
	p.AddNode("y", "Product")
	p.AddEdge("x", "z", "follow", core.Exists())
	p.AddEdge("z", "y", "like", core.Exists())
	p.SetFocus("x")
	return p
}

func TestChooseValid(t *testing.T) {
	g := hubGraph()
	s := stats.Collect(g)
	p := hubPattern()
	pl := Choose(g, s, p)
	if err := Validate(p, pl); err != nil {
		t.Fatal(err)
	}
	if pl.Order[0] != p.Focus {
		t.Errorf("order starts at %d, want focus %d", pl.Order[0], p.Focus)
	}
	if math.IsInf(pl.Cost, 1) {
		t.Errorf("connected pattern got infinite cost")
	}
}

func TestChoosePrefersLowFan(t *testing.T) {
	g := hubGraph()
	s := stats.Collect(g)
	p := hubPattern()
	pl := Choose(g, s, p)
	// From x the only connected extension is z (fan 50). After z, y costs
	// fan ≤ 1. Check the model: step cost must be non-decreasing only via
	// the forced hub step, and total cost reflects the 50-fan.
	if pl.StepCost[1] < 49 {
		t.Errorf("hub step cost = %v, want ≈50", pl.StepCost[1])
	}
	if pl.StepCost[2] > pl.StepCost[1] {
		t.Errorf("product step must not grow cardinality: %v -> %v", pl.StepCost[1], pl.StepCost[2])
	}

	// No Person likes a Product and no node is a Robot: an edge of a class
	// absent from the graph, or with an unknown label, has fan 0, the
	// cheapest extension there is, so the planner binds y (the lower index
	// of the two) second.
	q := hubPattern()
	q.AddEdge("x", "y", "like", core.Exists())
	q.AddNode("r", "Robot")
	q.AddEdge("x", "r", "follow", core.Exists())
	for ei := 2; ei < 4; ei++ {
		if f := edgeFan(g, s, q, ei, q.Focus); f != 0 {
			t.Errorf("edge %d: fan %v, want 0", ei, f)
		}
	}
	if y, _ := q.NodeIndex("y"); Choose(g, s, q).Order[1] != y {
		t.Errorf("order %v does not bind the unrealizable edge's y second", Choose(g, s, q).Order)
	}
}

// star pattern with one cheap and one expensive branch: the planner must
// take the cheap branch first.
func TestChooseGreedyBranchOrder(t *testing.T) {
	g := graph.New(100)
	x := g.AddNode("X")
	cheap := g.AddNode("C")
	g.AddEdge(x, cheap, "c")
	for i := 0; i < 40; i++ {
		e := g.AddNode("E")
		g.AddEdge(x, e, "e")
	}
	g.Finalize()
	s := stats.Collect(g)

	p := core.NewPattern()
	p.AddNode("x", "X")
	p.AddNode("a", "E")
	p.AddNode("b", "C")
	p.AddEdge("x", "a", "e", core.Exists())
	p.AddEdge("x", "b", "c", core.Exists())
	p.SetFocus("x")

	pl := Choose(g, s, p)
	if err := Validate(p, pl); err != nil {
		t.Fatal(err)
	}
	bIdx, _ := p.NodeIndex("b")
	if pl.Order[1] != bIdx {
		t.Errorf("planner chose node %d second, want cheap branch %d (order %v)", pl.Order[1], bIdx, pl.Order)
	}
}

func TestValidateRejects(t *testing.T) {
	p := hubPattern()
	cases := []struct {
		name string
		pl   *Plan
	}{
		{"short", &Plan{Order: []int{0, 1}, StepCost: []float64{1, 1}}},
		{"dup", &Plan{Order: []int{0, 1, 1}, StepCost: []float64{1, 1, 1}}},
		{"notFocus", &Plan{Order: []int{1, 0, 2}, StepCost: []float64{1, 1, 1}}},
		{"disconnected", &Plan{Order: []int{0, 2, 1}, StepCost: []float64{1, 1, 1}}},
	}
	for _, c := range cases {
		if err := Validate(p, c.pl); err == nil {
			t.Errorf("%s: Validate accepted invalid plan", c.name)
		}
	}
}

func TestChooseDisconnectedPattern(t *testing.T) {
	g := hubGraph()
	s := stats.Collect(g)
	p := core.NewPattern()
	p.AddNode("x", "Person")
	p.AddNode("y", "Product") // no edge: disconnected
	p.SetFocus("x")
	pl := Choose(g, s, p)
	if !math.IsInf(pl.Cost, 1) {
		t.Errorf("disconnected pattern should cost +Inf, got %v", pl.Cost)
	}
	if len(pl.Order) != 2 {
		t.Errorf("order must still cover all nodes: %v", pl.Order)
	}
}

// Property: for generated patterns on a social graph, Choose yields a
// valid plan, and running QMatch with the planner's order returns exactly
// the same answers as the default order.
func TestPlannerDifferentialEquality(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(300, 11))
	s := stats.Collect(g)
	pats := gen.Patterns(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 3000, Seed: 23}, 30)
	checked := 0
	for _, p := range pats {
		pl := Choose(g, s, p)
		if err := Validate(p, pl); err != nil {
			// Patterns from the generator are connected; any failure is a bug.
			t.Fatalf("pattern %v: %v", p, err)
		}
		base, err := match.QMatch(g, p, nil)
		if err != nil {
			continue
		}
		planned, err := match.QMatch(g, p, &match.Options{OrderBy: OrderFunc(g, s)})
		if err != nil {
			t.Fatalf("planned run failed: %v", err)
		}
		if !reflect.DeepEqual(base.Matches, planned.Matches) {
			t.Fatalf("planned answers differ: %v vs %v", base.Matches, planned.Matches)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("too few patterns checked: %d", checked)
	}
}

// Property: the engine falls back gracefully on garbage orders — results
// never change even when OrderBy returns invalid permutations.
func TestEngineToleratesInvalidOrder(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 5))
	pats := gen.Patterns(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 3000, Seed: 29}, 10)
	bad := [][]int{nil, {}, {0}, {0, 0, 0, 0}, {-1, 1, 2, 3}, {0, 1, 2, 99}}
	i := 0
	for _, p := range pats {
		base, err := match.QMatch(g, p, nil)
		if err != nil {
			continue
		}
		got, err := match.QMatch(g, p, &match.Options{OrderBy: func(*core.Pattern) []int {
			o := bad[i%len(bad)]
			i++
			return o
		}})
		if err != nil {
			t.Fatalf("invalid order crashed evaluation: %v", err)
		}
		if !reflect.DeepEqual(base.Matches, got.Matches) {
			t.Fatalf("invalid order changed answers")
		}
	}
}

// Property (quick): plans on random small-world graphs are always valid
// and deterministic.
func TestChooseDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.SmallWorld(gen.SmallWorldConfig{Nodes: 150, Edges: 600, Labels: 6, Seed: seed})
		s := stats.Collect(g)
		pats := gen.Patterns(g, gen.PatternConfig{Nodes: 4, Edges: 5, RatioBP: 3000, Seed: seed ^ 0x5a5a}, 5)
		for _, p := range pats {
			a := Choose(g, s, p)
			b := Choose(g, s, p)
			if Validate(p, a) != nil {
				return false
			}
			if !reflect.DeepEqual(a.Order, b.Order) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
