package cluster

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
)

// insertionEnds are the nodes Update walks the materialization ball
// around: the endpoints of the batch's inserted edges and the nodes it
// created, ascending and distinct.
func insertionEnds(old *graph.OldView, newG *graph.Graph) []graph.NodeID {
	var ends []graph.NodeID
	for _, e := range old.Edits() {
		if e.Added {
			ends = append(ends, e.From, e.To)
		}
	}
	for v := old.NumNodes(); v < newG.NumNodes(); v++ {
		ends = append(ends, graph.NodeID(v))
	}
	slices.Sort(ends)
	return slices.Compact(ends)
}

// TestSettledRuleIsExact: whenever settled spares a worker the ball, the
// whole (D-1)-ball around the batch's insertion ends is already
// materialized in its fragment, over churn on two graph shapes, D = 1, 2,
// 3 and 2 and 3 workers. The rule must also spare some worker-batches and
// not others, or the run proved nothing.
func TestSettledRuleIsExact(t *testing.T) {
	shapes := []struct {
		name string
		g    func() *graph.Graph
	}{
		{"social", func() *graph.Graph { return gen.Social(gen.DefaultSocial(150, 3)) }},
		{"knowledge", func() *graph.Graph { return gen.Knowledge(gen.DefaultKnowledge(150, 3)) }},
	}
	for _, shape := range shapes {
		for d := 1; d <= 3; d++ {
			for _, workers := range []int{2, 3} {
				t.Run(fmt.Sprintf("%s/d=%d/workers=%d", shape.name, d, workers), func(t *testing.T) {
					c := newEmbedded(t, shape.g(), workers, Config{D: d})
					vg := graph.NewVersioned(c.Graph().Clone())
					churn := fixture.NewChurn(int64(10*d + workers))
					var ball dynamic.BallScratch
					spared, walked := 0, 0
					for round := 0; round < 140; round++ {
						muts := churn.Next(vg.Graph())
						if len(muts) == 0 {
							continue
						}
						old, err := vg.Apply(muts)
						if err != nil {
							t.Fatal(err)
						}
						newG := vg.Graph()
						ends := insertionEnds(old, newG)
						for _, w := range c.workers {
							if !settled(&w.ids, newG, ends) {
								walked++
								continue
							}
							spared++
							for _, u := range ball.Ball(newG, ends, d-1) {
								if !w.ids.has(u) {
									t.Fatalf("round %d: worker %d called settled, but node %d of the ball around %v is not in its fragment (%+v)",
										round, w.id, u, ends, muts)
								}
							}
						}
						if _, err := c.Update(specsOf(muts)); err != nil {
							t.Fatalf("round %d: Update: %v", round, err)
						}
						if round%20 == 0 {
							requireCovered(t, c, fmt.Sprintf("round %d", round))
						}
					}
					requireCovered(t, c, "the end")
					t.Logf("%d worker-batches spared the ball, %d not", spared, walked)
					if spared == 0 || walked == 0 {
						t.Fatalf("%d worker-batches spared the ball, %d not: the rule went untested", spared, walked)
					}
				})
			}
		}
	}
}

// TestSettledRuleRefusesAnInsertedNeighbour: a batch links a node a worker
// owns to a node its fragment holds two hops out. That end's only owned
// neighbour lies across the edge the batch inserts, so the worker is not
// settled, and the batch materializes the nodes newly within D hops of
// the owned node.
func TestSettledRuleRefusesAnInsertedNeighbour(t *testing.T) {
	const n = 60
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("person")
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), "follow")
	}
	g.Finalize()
	c := newEmbedded(t, g, 2, Config{D: 2})

	// w holds x but owns none of x's neighbours, and owns a, which is
	// not next to x.
	ownedNeighbour := func(w *worker, v graph.NodeID) bool {
		return slices.ContainsFunc(g.Neighborhood(v, 1), w.ids.owns)
	}
	var w *worker
	var a, x graph.NodeID
	for _, cand := range c.workers {
		for _, v := range cand.ids.toGlobal {
			if cand.ids.owns(v) || ownedNeighbour(cand, v) {
				continue
			}
			for _, u := range cand.ids.toGlobal {
				if cand.ids.owns(u) && !slices.Contains(g.Neighborhood(v, 1), u) {
					w, a, x = cand, u, v
				}
			}
		}
	}
	if w == nil {
		t.Fatal("no fragment holds a node two hops from the nodes it owns")
	}

	batch := []graph.Mutation{{Op: graph.MutAddEdge, From: a, To: x, Label: "follow"}}
	vg := graph.NewVersioned(g.Clone())
	old, err := vg.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	newG := vg.Graph()
	if settled(&w.ids, newG, insertionEnds(old, newG)) {
		t.Fatalf("worker %d called settled for the batch %d→%d, whose end %d is next to an owned node only over that edge", w.id, a, x, x)
	}
	var missing []graph.NodeID
	for _, u := range newG.Neighborhood(a, 2) {
		if !w.ids.has(u) {
			missing = append(missing, u)
		}
	}
	if len(missing) == 0 {
		t.Fatalf("the batch %d→%d brings no node newly within 2 hops of %d", a, x, a)
	}
	if _, err := c.Update(specsOf(batch)); err != nil {
		t.Fatal(err)
	}
	for _, u := range missing {
		if !w.ids.has(u) {
			t.Fatalf("worker %d owns %d but the batch %d→%d left %d, now %d hops or fewer away, out of its fragment", w.id, a, a, x, u, 2)
		}
	}
	requireCovered(t, c, "after the batch")
	requireInducedCopies(t, c, "after the batch")
}
