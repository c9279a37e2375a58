package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestAnswersIndependentOfOrder: the matching order decides how much a
// search costs, never what it finds. Over a social and a knowledge graph
// under churn, each pattern — the fixture's and generated ones of 4 to 8
// nodes, some with negated edges — is held in a Bound that Advance carries
// from batch to batch. At every checked version the advanced Bound and a
// fresh bind hold the order rank gives for the graph's class sizes and
// answer what Enum answers, and so does every positive run under orders
// ranked from shuffled class sizes.
func TestAnswersIndependentOfOrder(t *testing.T) {
	const rounds, every, shuffles = 100, 20, 3
	// Feature-composed patterns rarely have an answer on the sparser
	// knowledge graph; patterns sampled from the graph always have one.
	worlds := []struct {
		name     string
		g        *graph.Graph
		patterns func(*graph.Graph, gen.PatternConfig) []*core.Pattern
	}{
		{"social", gen.Social(gen.DefaultSocial(200, 5)), func(g *graph.Graph, cfg gen.PatternConfig) []*core.Pattern {
			return fixture.Patterns(g, cfg, 2)
		}},
		{"knowledge", gen.Knowledge(gen.DefaultKnowledge(300, 5)), func(g *graph.Graph, cfg gen.PatternConfig) []*core.Pattern {
			cfg2 := cfg
			cfg2.Seed += 100
			return []*core.Pattern{gen.SampledPattern(g, cfg), gen.SampledPattern(g, cfg2)}
		}},
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			vg := graph.NewVersioned(w.g)
			g := vg.Graph()
			qs := []*core.Pattern{fixture.Q1(), fixture.Q2(), fixture.Q3(2), fixture.Q4(1), fixture.Q5()}
			for i := range fixture.Mix {
				qs = append(qs, mixPattern(t, i))
			}
			for nodes := 4; nodes <= 8; nodes++ {
				qs = append(qs, w.patterns(g, gen.PatternConfig{
					Nodes: nodes, Edges: nodes + 1, RatioBP: 3000, NegEdges: nodes % 2, Seed: int64(nodes),
				})...)
			}
			preps := make([]*Prepared, len(qs))
			bounds := make([]*Bound, len(qs))
			for i, q := range qs {
				var err error
				if preps[i], err = Prepare(q); err != nil {
					t.Fatal(err)
				}
				bounds[i] = preps[i].Bind(g)
			}
			r := rand.New(rand.NewSource(13))
			churn := fixture.NewChurn(17)
			checked, answered, orders := 0, 0, map[string]bool{}
			for round := 0; round <= rounds; round++ {
				if round > 0 {
					if _, err := vg.Apply(churn.Next(g)); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					for _, b := range bounds {
						b.Advance()
					}
				}
				if round%every != 0 {
					continue
				}
				for i, q := range qs {
					want, err := Enum(g, q, &Options{ExtensionBudget: 2_000_000})
					if err == ErrBudgetExceeded {
						continue
					} else if err != nil {
						t.Fatal(err)
					}
					fresh := preps[i].Bind(g)
					for k := range fresh.pos {
						bp := &fresh.pos[k]
						size := make([]int, len(bp.p.Nodes))
						for u := range size {
							size[u] = len(g.NodesByLabel(bp.nodeLabel[u]))
						}
						ranked := bp.ordered(size, nil)
						if !reflect.DeepEqual(bounds[i].pos[k].ord, ranked) || !reflect.DeepEqual(bp.ord, ranked) {
							t.Fatalf("round %d, pattern %d, %s: advanced order %+v, fresh %+v, ranked %+v",
								round, i, bp.name, bounds[i].pos[k].ord, bp.ord, ranked)
						}
					}
					runs := []*Bound{bounds[i], fresh}
					for s := 0; s < shuffles; s++ {
						alt := preps[i].Bind(g)
						for k := range alt.pos {
							bp := &alt.pos[k]
							size := r.Perm(len(bp.p.Nodes))
							for u := range size {
								size[u] *= 1 + r.Intn(50)
							}
							bp.ord = bp.ordered(size, nil)
							orders[bp.name+orderKey(bp.p, bp.ord.order)] = true
						}
						runs = append(runs, alt)
					}
					for k, b := range runs {
						got, err := b.Run(EngineQMatch, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Matches, want.Matches) {
							t.Fatalf("round %d, pattern %d, run %d: %d answers, Enum %d\n%s",
								round, i, k, len(got.Matches), len(want.Matches), q)
						}
					}
					checked++
					if len(want.Matches) > 0 {
						answered++
					}
				}
			}
			// Enum may run out of budget on an 8-node pattern; three checks
			// in four must still be made.
			if checked < len(qs)*(rounds/every+1)*3/4 || answered < checked/3 || len(orders) < 2*len(qs) {
				t.Fatalf("coverage: %d pattern checks, %d with answers, %d distinct orders over %d patterns",
					checked, answered, len(orders), len(qs))
			}
		})
	}
}

// orderKey spells a matching order by node names.
func orderKey(p *core.Pattern, order []int) string {
	s := ""
	for _, u := range order {
		s += "/" + p.Nodes[u].Name
	}
	return s
}

// TestRankToleratesDegenerateSizes: rank needs no sensible class sizes to
// yield a sound order. Fed zero, negative, equal and huge sizes, it still
// places every node once, focus first, each anchored at an earlier node by
// an edge between the two, with every other edge checked exactly once at
// its later end; and runs under those orders answer as QMatch does.
func TestRankToleratesDegenerateSizes(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 5))
	pats := fixture.Patterns(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 3000, Seed: 29}, 10)
	const huge = 1 << 30
	bad := []func(u int) int{
		func(int) int { return 0 },
		func(int) int { return -1 },
		func(u int) int { return -u },
		func(int) int { return huge },
		func(u int) int { return huge * (u % 2) },
		func(u int) int { return huge - u },
	}
	checked := 0
	for _, p := range pats {
		base, err := QMatch(g, p, nil)
		if err != nil {
			continue
		}
		prep, err := Prepare(p)
		if err != nil {
			t.Fatal(err)
		}
		for bi, f := range bad {
			alt := prep.Bind(g)
			for k := range alt.pos {
				bp := &alt.pos[k]
				size := make([]int, len(bp.p.Nodes))
				for u := range size {
					size[u] = f(u)
				}
				bp.ord = bp.ordered(size, nil)
				if err := validOrder(bp.p, bp.ord); err != nil {
					t.Fatalf("sizes %d, %s: %v\n%s", bi, bp.name, err, bp.p)
				}
			}
			got, err := alt.Run(EngineQMatch, nil)
			if err != nil {
				t.Fatalf("sizes %d: %v", bi, err)
			}
			if !reflect.DeepEqual(got.Matches, base.Matches) {
				t.Fatalf("sizes %d: %d answers, QMatch %d\n%s", bi, len(got.Matches), len(base.Matches), p)
			}
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("too few patterns checked: %d", checked)
	}
}

// validOrder reports what, if anything, makes mo unsound for p.
func validOrder(p *core.Pattern, mo matchOrder) error {
	n := len(p.Nodes)
	if len(mo.order) != n || mo.order[0] != p.Focus {
		return fmt.Errorf("order %v over %d nodes, focus %d", mo.order, n, p.Focus)
	}
	pos := make([]int, n)
	for u := range pos {
		pos[u] = -1
	}
	for i, u := range mo.order {
		if u < 0 || u >= n || pos[u] >= 0 {
			return fmt.Errorf("order %v is not a permutation", mo.order)
		}
		pos[u] = i
	}
	verified := make([]int, len(p.Edges))
	for i, u := range mo.order {
		for _, ei := range mo.checks[i] {
			verified[ei]++
		}
		if i == 0 {
			continue
		}
		a := mo.anchors[i]
		e := p.Edges[a.edge]
		if pos[a.at] >= i || a.out && (e.From != a.at || e.To != u) || !a.out && (e.To != a.at || e.From != u) {
			return fmt.Errorf("position %d (node %d) anchored at node %d by edge %d", i, u, a.at, a.edge)
		}
		verified[a.edge]++
	}
	for ei, c := range verified {
		if c != 1 {
			return fmt.Errorf("edge %d verified %d times", ei, c)
		}
	}
	return nil
}
