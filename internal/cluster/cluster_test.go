package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/server"
)

// Patterns exercised across the tests: an existential/counting mix, a
// negation, and a ratio — the quantifier classes of the paper.
var testPatterns = []string{
	"qgp\nn xo person *\nn z person\ne xo z follow >=3\n",
	"qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=2\ne z p recom >=1\n",
	"qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p bad_rating =0\n",
	"qgp\nn xo person *\nn z person\ne xo z follow >=60%\n",
}

func mustParse(t testing.TB, dsl string) *core.Pattern {
	t.Helper()
	q, err := core.Parse(dsl)
	if err != nil {
		t.Fatalf("parse %q: %v", dsl, err)
	}
	return q
}

func newEmbedded(t testing.TB, g *graph.Graph, workers int, cfg Config) *Coordinator {
	t.Helper()
	ts := InProcessN(workers, server.Config{})
	t.Cleanup(func() { CloseAll(ts) })
	c, err := New(g.Clone(), ts, cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return c
}

// requireInducedCopies fails unless every copy of every fragment holds as
// many nodes and edges as the subgraph of the coordinator's graph induced
// by the fragment's global ids.
func requireInducedCopies(t testing.TB, c *Coordinator, when string) {
	t.Helper()
	for _, w := range c.workers {
		sub, _ := graph.InducedOf(c.Graph(), w.ids.toGlobal)
		for i, cp := range w.copies {
			resp, err := cp.t.Do(&server.Request{Cmd: "ping"})
			if err != nil {
				t.Fatalf("%s: fragment %d copy %d: ping: %v", when, w.id, i, err)
			}
			if resp.Nodes != sub.NumNodes() || resp.Edges != sub.NumEdges() {
				t.Fatalf("%s: fragment %d copy %d holds %d nodes and %d edges, the induced subgraph %d and %d",
					when, w.id, i, resp.Nodes, resp.Edges, sub.NumNodes(), sub.NumEdges())
			}
		}
	}
}

// requireCovered fails unless every fragment materializes the D-ball of
// every node it owns in the coordinator's graph: the covering property
// partition.Validate checks at build, which every update must keep, since
// planning an update relies on it.
func requireCovered(t testing.TB, c *Coordinator, when string) {
	t.Helper()
	for _, w := range c.workers {
		for _, v := range w.ids.toGlobal {
			if !w.ids.owns(v) {
				continue
			}
			for _, u := range c.Graph().Neighborhood(v, c.cfg.D) {
				if !w.ids.has(u) {
					t.Fatalf("%s: fragment %d owns %d but misses %d, %d hops or fewer away", when, w.id, v, u, c.cfg.D)
				}
			}
		}
	}
}

func globalAnswers(t testing.TB, g *graph.Graph, q *core.Pattern) []graph.NodeID {
	t.Helper()
	res, err := match.QMatch(g, q, nil)
	if err != nil {
		t.Fatalf("QMatch: %v", err)
	}
	return res.Matches
}

func nodeIDs(vs []graph.NodeID) []graph.NodeID {
	if vs == nil {
		return []graph.NodeID{}
	}
	return vs
}

// TestMatchEquivalence is the acceptance criterion: an embedded 2-worker
// cluster returns exactly the single-process answer set, for every
// quantifier class.
func TestMatchEquivalence(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(400, 7))
	for _, workers := range []int{1, 2, 4} {
		c := newEmbedded(t, g, workers, Config{D: 2})
		ref := c.Graph() // normalized version both sides evaluate
		for _, dsl := range testPatterns {
			q := mustParse(t, dsl)
			got, err := c.Match(q)
			if err != nil {
				t.Fatalf("workers=%d: Match: %v", workers, err)
			}
			want := globalAnswers(t, ref, q)
			if !reflect.DeepEqual(nodeIDs(got.Matches), nodeIDs(want)) {
				t.Errorf("workers=%d pattern %q: cluster answers %v != single-process %v",
					workers, dsl, got.Matches, want)
			}
		}
	}
}

// TestMatchRejectsUnderRadius: a pattern needing more hops than the
// fragmentation preserves must be rejected, not silently wrong.
func TestMatchRejectsUnderRadius(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(100, 1))
	c := newEmbedded(t, g, 2, Config{D: 1})
	q := mustParse(t, testPatterns[1]) // radius 2
	if _, err := c.Match(q); err == nil {
		t.Fatal("Match accepted a pattern with RequiredHops > d")
	}
	if _, err := c.Watch("w", q); err == nil {
		t.Fatal("Watch accepted a pattern with RequiredHops > d")
	}
}

// twoIslands builds two disconnected communities so the BFS-ordered base
// partition puts one on each of two workers; updates inside one island
// must not contact the other island's worker.
func twoIslands(t *testing.T) *graph.Graph {
	t.Helper()
	const side = 30
	g := graph.New(2 * side)
	for i := 0; i < 2*side; i++ {
		g.AddNode("person")
	}
	for island := 0; island < 2; island++ {
		base := graph.NodeID(island * side)
		for i := 0; i < side; i++ {
			// A ring plus a chord keeps each island connected and gives
			// the follow counts some variety.
			g.AddEdge(base+graph.NodeID(i), base+graph.NodeID((i+1)%side), "follow")
			if i%3 == 0 {
				g.AddEdge(base+graph.NodeID(i), base+graph.NodeID((i+7)%side), "follow")
			}
		}
	}
	g.Finalize()
	return g
}

// TestUpdateRouting is the second acceptance criterion: an update batch is
// routed to only the workers whose fragments it changes.
func TestUpdateRouting(t *testing.T) {
	g := twoIslands(t)
	c := newEmbedded(t, g, 2, Config{D: 2})

	// Every island-0 node must be owned by one worker and every island-1
	// node by the other for the routing assertion to be meaningful.
	if _, err := c.Watch("w", mustParse(t, "qgp\nn xo person *\nn z person\ne xo z follow >=2\n")); err != nil {
		t.Fatalf("Watch: %v", err)
	}

	res, err := c.Update([]server.UpdateSpec{
		{Op: "addEdge", From: 2, To: 11, Label: "follow"},
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if len(res.Contacted) != 1 {
		t.Fatalf("update inside one island contacted workers %v, want exactly one", res.Contacted)
	}

	// An update touching both islands must contact both workers.
	res, err = c.Update([]server.UpdateSpec{
		{Op: "addEdge", From: 3, To: 5, Label: "follow"},
		{Op: "addEdge", From: 40, To: 42, Label: "follow"},
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if len(res.Contacted) != 2 {
		t.Fatalf("update in both islands contacted workers %v, want both", res.Contacted)
	}

	// A no-op batch (re-adding existing edges) changes no fragment mirror
	// and no answer, so nobody is spoken to at all.
	res, err = c.Update([]server.UpdateSpec{
		{Op: "addEdge", From: 3, To: 5, Label: "follow"},
		{Op: "addEdge", From: 40, To: 42, Label: "follow"},
	})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if len(res.Contacted) != 0 {
		t.Fatalf("no-op update contacted workers %v, want none", res.Contacted)
	}
}

// applySpecs mirrors the cluster update on a single-process graph.
func applySpecs(t *testing.T, g *graph.Graph, specs []server.UpdateSpec) *graph.Graph {
	t.Helper()
	ups, err := server.ToUpdates(specs)
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := dynamic.Apply(g, ups)
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

// TestIncrementalEquivalence is the e2e satellite: an embedded coordinator
// plus ≥2 workers driven through gen → watch → update, asserting after
// every batch that the merged cluster delta equals the single-process
// dynamic.Matcher delta, and that the merged standing answers track the
// single-process answers. Two of the watches are outside the countable
// class — a same-label node two hops from the focus, and a cycle through a
// product both persons recommend — so each worker's own reach-plan walk
// over its fragment is what finds their candidates.
func TestIncrementalEquivalence(t *testing.T) {
	for _, workers := range []int{2, 3} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := gen.Social(gen.DefaultSocial(250, 11))
			c := newEmbedded(t, g, workers, Config{D: 2})
			ref := c.Graph()

			watched := []string{testPatterns[0], testPatterns[2],
				"qgp\nn xo person *\nn z person\nn y person\ne xo z follow >=1\ne z y follow >=2\n",
				"qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p recom >=1\ne xo p recom >=1\n",
			}
			// The single-process side: one versioned copy of the graph
			// that every matcher follows, as a server session's do.
			vg := graph.NewVersioned(ref.Clone())
			matchers := make(map[string]*dynamic.Matcher, len(watched))
			for i, dsl := range watched {
				name := fmt.Sprintf("w%d", i)
				q := mustParse(t, dsl)
				got, err := c.Watch(name, q)
				if err != nil {
					t.Fatalf("Watch %s: %v", name, err)
				}
				m, err := dynamic.NewMatcher(vg.Graph(), q)
				if err != nil {
					t.Fatal(err)
				}
				matchers[name] = m
				if !reflect.DeepEqual(nodeIDs(got), nodeIDs(m.Answers())) {
					t.Fatalf("watch %s initial answers %v != single-process %v", name, got, m.Answers())
				}
			}

			r := rand.New(rand.NewSource(int64(workers)))
			persons := int64(250)
			for round := 0; round < 8; round++ {
				var specs []server.UpdateSpec
				for i := 0; i < 5; i++ {
					from, to := r.Int63n(persons), r.Int63n(persons)
					if from == to {
						to = (to + 1) % persons
					}
					switch r.Intn(4) {
					case 0, 1:
						specs = append(specs, server.UpdateSpec{Op: "addEdge", From: from, To: to, Label: "follow"})
					case 2:
						specs = append(specs, server.UpdateSpec{Op: "removeEdge", From: from, To: to, Label: "follow"})
					case 3:
						specs = append(specs, server.UpdateSpec{Op: "removeNode", From: from})
					}
				}
				if round == 3 {
					// Grow the graph: a new person following into the
					// existing community, exercising node assignment.
					specs = append(specs,
						server.UpdateSpec{Op: "addNode", Label: "person"},
						server.UpdateSpec{Op: "addEdge", From: int64(ref.NumNodes()), To: 4, Label: "follow"},
						server.UpdateSpec{Op: "addEdge", From: 5, To: int64(ref.NumNodes()), Label: "follow"},
					)
				}

				res, err := c.Update(specs)
				if err != nil {
					t.Fatalf("round %d: Update: %v", round, err)
				}
				requireInducedCopies(t, c, fmt.Sprintf("round %d", round))
				requireCovered(t, c, fmt.Sprintf("round %d", round))
				ref = applySpecs(t, ref, specs)
				if res.Nodes != ref.NumNodes() || res.Edges != ref.NumEdges() {
					t.Fatalf("round %d: cluster graph %d/%d != single-process %d/%d",
						round, res.Nodes, res.Edges, ref.NumNodes(), ref.NumEdges())
				}

				deltaByWatch := make(map[string]server.WatchDelta, len(res.Deltas))
				for _, d := range res.Deltas {
					deltaByWatch[d.Watch] = d
				}
				ups, _ := server.ToUpdates(specs)
				old, err := vg.Apply(ups)
				if err != nil {
					t.Fatal(err)
				}
				for name, m := range matchers {
					want, err := m.ApplyShared(old, vg.Graph(), nil)
					if err != nil {
						t.Fatal(err)
					}
					got := deltaByWatch[name]
					if !reflect.DeepEqual(toInt64(want.Added), nodeIDs64(got.Added)) ||
						!reflect.DeepEqual(toInt64(want.Removed), nodeIDs64(got.Removed)) {
						t.Fatalf("round %d watch %s: cluster delta +%v -%v != single-process +%v -%v",
							round, name, got.Added, got.Removed, want.Added, want.Removed)
					}
				}
			}

			// After all rounds the cluster must still answer fresh queries
			// exactly like a single process over the final graph.
			for _, dsl := range testPatterns {
				q := mustParse(t, dsl)
				got, err := c.Match(q)
				if err != nil {
					t.Fatalf("final Match: %v", err)
				}
				want := globalAnswers(t, ref, q)
				if !reflect.DeepEqual(nodeIDs(got.Matches), nodeIDs(want)) {
					t.Errorf("final pattern %q: cluster %v != single-process %v", dsl, got.Matches, want)
				}
			}
		})
	}
}

func toInt64(vs []graph.NodeID) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(v)
	}
	return out
}

func nodeIDs64(vs []int64) []int64 {
	if vs == nil {
		return []int64{}
	}
	return vs
}

// TestUnwatch: removed watches stop producing deltas cluster-wide.
func TestUnwatch(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(120, 3))
	c := newEmbedded(t, g, 2, Config{D: 2})
	q := mustParse(t, testPatterns[0])
	if _, err := c.Watch("w", q); err != nil {
		t.Fatal(err)
	}
	if got := c.Watches(); !reflect.DeepEqual(got, []string{"w"}) {
		t.Fatalf("Watches() = %v", got)
	}
	if err := c.Unwatch("w"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Update([]server.UpdateSpec{{Op: "addEdge", From: 0, To: 1, Label: "follow"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deltas) != 0 {
		t.Fatalf("deltas after unwatch: %v", res.Deltas)
	}
	if err := c.Unwatch("w"); err == nil {
		t.Fatal("double Unwatch succeeded")
	}
}
