package cluster

import (
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
)

// PQMatch (§5) as the cluster serves it, against sequential QMatch: the
// differential tests of the paper's parallel evaluation.

// engines are the per-worker engines of PQMatch, PQMatchn and PEnum.
var engines = []string{"qmatch", "qmatchn", "enum"}

// pqCluster is an embedded cluster of the given workers over a copy of g
// at radius d, closed when the test ends. Its workers run unbudgeted, as
// the sequential engines do.
func pqCluster(t testing.TB, g *graph.Graph, workers, d int) *Coordinator {
	t.Helper()
	ts := InProcessN(workers, server.Config{DefaultBudget: -1})
	c, err := New(g.Clone(), ts, Config{D: d})
	if err != nil {
		CloseAll(ts)
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// pqMatch runs q on c with the engine of the given wire name.
func pqMatch(t testing.TB, c *Coordinator, q *core.Pattern, engine string) *MatchResult {
	t.Helper()
	res, err := c.MatchWith(q, &MatchOptions{Engine: engine})
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	return res
}

func TestPQMatchEqualsSequentialPaperExamples(t *testing.T) {
	f1 := fixture.NewG1()
	f2 := fixture.NewG2()
	cases := []struct {
		name string
		g    *graph.Graph
		q    *core.Pattern
	}{
		{"Q2/G1", f1.G, fixture.Q2()},
		{"Q3/G1", f1.G, fixture.Q3(2)},
		{"Q4/G2", f2.G, fixture.Q4(2)},
		{"Q5/G2", f2.G, fixture.Q5()},
	}
	for _, tc := range cases {
		want := globalAnswers(t, tc.g, tc.q)
		for _, workers := range []int{1, 2, 3} {
			c := pqCluster(t, tc.g, workers, core.RequiredHops(tc.q))
			for _, engine := range engines {
				if got := pqMatch(t, c, tc.q, engine).Matches; !reflect.DeepEqual(nodeIDs(got), nodeIDs(want)) {
					t.Errorf("%s n=%d %s: cluster=%v sequential=%v", tc.name, workers, engine, got, want)
				}
			}
		}
	}
}

func TestPQMatchEqualsSequentialGenerated(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(600, 17))
	patterns := fixture.Patterns(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 3000, NegEdges: 1, Seed: 23}, 4)
	for pi, q := range patterns {
		want := globalAnswers(t, g, q)
		c := pqCluster(t, g, 4, core.RequiredHops(q))
		for _, engine := range engines {
			if got := pqMatch(t, c, q, engine).Matches; !reflect.DeepEqual(nodeIDs(got), nodeIDs(want)) {
				t.Errorf("pattern %d %s: cluster=%d matches, sequential=%d\n%s", pi, engine, len(got), len(want), q)
			}
		}
	}
}

func TestInsufficientHopsRejected(t *testing.T) {
	c := pqCluster(t, fixture.NewG1().G, 2, 1) // Q2 needs d=2
	if _, err := c.MatchWith(fixture.Q2(), nil); err == nil {
		t.Fatal("pattern beyond the fragmentation's radius accepted")
	}
}

// matchCounter counts the match requests that reach a worker.
type matchCounter struct {
	Transport
	matches *atomic.Int64
}

func (m matchCounter) Do(req *server.Request) (*server.Response, error) {
	if req.Cmd == "match" {
		m.matches.Add(1)
	}
	return m.Transport.Do(req)
}

// TestUnknownEngineRejected: an engine no worker runs is refused by the
// coordinator before any worker is asked, with the text the front end
// answers the same request with.
func TestUnknownEngineRejected(t *testing.T) {
	var matches atomic.Int64
	ts := InProcessN(2, server.Config{})
	for i, tr := range ts {
		ts[i] = matchCounter{tr, &matches}
	}
	c, err := New(fixture.NewG1().G.Clone(), ts, Config{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_, err = c.MatchWith(fixture.Q2(), &MatchOptions{Engine: "bogus"})
	if err == nil {
		t.Fatal("match with an unknown engine accepted")
	}
	if n := matches.Load(); n != 0 {
		t.Fatalf("an unknown engine reached the workers: %d match requests", n)
	}

	fe := startFrontend(t, 2)
	if _, _, err := fe.Gen("social", 50, 1); err != nil {
		t.Fatal(err)
	}
	_, ferr := fe.Match(fixture.Q2().String(), &client.MatchOptions{Engine: "bogus"})
	var want *client.ServerError
	if !errors.As(ferr, &want) || err.Error() != want.Msg || want.Msg != `unknown engine "bogus"` {
		t.Fatalf("coordinator answers %q, front end %v", err, ferr)
	}

	if _, err := c.MatchWith(fixture.Q2(), nil); err != nil {
		t.Fatal(err)
	}
	if n := matches.Load(); n != 2 {
		t.Fatalf("a match reached %d workers, want 2", n)
	}
}

// TestWorkAccounting: the per-worker metrics account a run's work as §5
// does. One worker's share is the whole run; four workers shorten the
// critical path without changing the answer.
func TestWorkAccounting(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(800, 5))
	q := gen.Pattern(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 3000, NegEdges: 0, Seed: 2})
	r1 := pqMatch(t, pqCluster(t, g, 1, core.RequiredHops(q)), q, "qmatch")
	r4 := pqMatch(t, pqCluster(t, g, 4, core.RequiredHops(q)), q, "qmatch")
	total1, slowest1 := r1.Work()
	_, slowest4 := r4.Work()
	if total1 <= 0 || len(r1.PerWorker) != 1 || len(r4.PerWorker) != 4 {
		t.Fatalf("work accounting empty: n=1 %+v, n=4 %+v", r1.PerWorker, r4.PerWorker)
	}
	if slowest1 != total1 {
		t.Errorf("single worker: critical path %d != total %d", slowest1, total1)
	}
	if slowest4 >= slowest1 {
		t.Errorf("critical path did not shrink: n=1 %d, n=4 %d", slowest1, slowest4)
	}
	if !reflect.DeepEqual(r1.Matches, r4.Matches) {
		t.Error("worker count changed the answer")
	}
}

// chain is the pattern xo -r quant1→ z -r quant2→ y over nodes labelled a.
func chain(quant1, quant2 core.Quantifier) *core.Pattern {
	q := core.NewPattern()
	q.AddNode("xo", "a")
	q.AddNode("z", "a")
	q.AddNode("y", "a")
	q.AddEdge("xo", "z", "r", quant1)
	q.AddEdge("z", "y", "r", quant2)
	return q
}

func aGraph(n int, edges [][2]graph.NodeID) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("a")
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1], "r")
	}
	g.Finalize()
	return g
}

// ownerless counts the fragments that materialise nodes but own none: they
// must answer nothing, not everything their incomplete neighbourhoods show.
func ownerless(c *Coordinator) int {
	n := 0
	for _, w := range c.workers {
		if len(w.ids.toGlobal) > 0 && w.ids.owned == 0 {
			n++
		}
	}
	return n
}

// TestOwnerlessFragmentAnswersNothing: with 5 workers at D=2, worker 0
// materialises {0,1} and owns nothing. Over that fragment alone node 0
// looks like an answer (its z = 1 has lost the edge 1→4 that disqualifies
// it); a worker that took "no owned nodes" for "no restriction" reported
// it.
func TestOwnerlessFragmentAnswersNothing(t *testing.T) {
	g := aGraph(6, [][2]graph.NodeID{{0, 0}, {0, 1}, {1, 4}, {2, 2}, {3, 0}, {4, 0}})
	q := chain(core.Exists(), core.Negated())
	c := pqCluster(t, g, 5, 2)
	if w := c.workers[0]; !reflect.DeepEqual(w.ids.toGlobal, []graph.NodeID{0, 1}) || w.ids.owned != 0 {
		t.Fatalf("fragment 0 = nodes %v owning %d, want nodes [0 1] owning nothing", w.ids.toGlobal, w.ids.owned)
	}
	if want := globalAnswers(t, g, q); len(want) != 0 {
		t.Fatalf("QMatch = %v, want no answer", want)
	}
	for _, engine := range engines {
		if got := pqMatch(t, c, q, engine).Matches; len(got) != 0 {
			t.Errorf("%s over the cluster = %v, QMatch = []", engine, got)
		}
	}
}

// TestPQMatchEqualsSequentialSmallPartitions sweeps the corner the
// generated-graph tests never reach: more workers than the graph can feed,
// so some fragments materialise border nodes and own none.
func TestPQMatchEqualsSequentialSmallPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	patterns := []*core.Pattern{
		chain(core.Exists(), core.Count(core.GE, 2)),
		chain(core.Exists(), core.Negated()),
	}
	met := 0
	for round := 0; round < 300; round++ {
		n := 3 + rng.Intn(7)
		var edges [][2]graph.NodeID
		for i := rng.Intn(2 * n); i >= 0; i-- {
			edges = append(edges, [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))})
		}
		g := aGraph(n, edges)
		for workers := 2; workers <= 6; workers++ {
			ts := InProcessN(workers, server.Config{})
			c, err := New(g.Clone(), ts, Config{D: 2})
			if err != nil {
				CloseAll(ts)
				t.Fatal(err)
			}
			met += ownerless(c)
			for qi, q := range patterns {
				want := globalAnswers(t, g, q)
				got, err := c.Match(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(nodeIDs(got.Matches), nodeIDs(want)) {
					t.Fatalf("round %d, %d workers, pattern %d, edges %v: cluster = %v, QMatch = %v",
						round, workers, qi, edges, got.Matches, want)
				}
			}
			c.Close()
		}
	}
	if met == 0 {
		t.Fatal("the sweep met no fragment that materialises nodes and owns none")
	}
	t.Logf("owner-less non-empty fragments met: %d", met)
}
