package parallel_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/parallel"
	"repro/internal/partition"
)

func cluster(t *testing.T, g *graph.Graph, workers, d int) *parallel.Cluster {
	t.Helper()
	p, err := partition.DPar(g, partition.Config{Workers: workers, D: d})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return parallel.NewCluster(p)
}

func TestRequiredHops(t *testing.T) {
	if got := parallel.RequiredHops(fixture.Q2()); got != 2 {
		// Q2: radius 2; the ratio edge (=100%) leaves the focus, 0+1=1 < 2.
		t.Errorf("RequiredHops(Q2) = %d, want 2", got)
	}
	if got := parallel.RequiredHops(fixture.Q3(2)); got != 2 {
		t.Errorf("RequiredHops(Q3) = %d, want 2", got)
	}
	// A ratio edge two hops out forces an extra hop.
	p := core.NewPattern()
	p.AddNode("xo", "a")
	p.AddNode("b", "b")
	p.AddNode("c", "c")
	p.AddEdge("xo", "b", "r", core.Exists())
	p.AddEdge("b", "c", "s", core.RatioPercent(core.GE, 50))
	if got := parallel.RequiredHops(p); got != 2 {
		t.Errorf("RequiredHops = %d, want 2 (dist(b)+1)", got)
	}
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
	for _, c := range cases {
		seq, err := match.QMatch(c.g, c.q, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, workers := range []int{1, 2, 3} {
			cl := cluster(t, c.g, workers, parallel.RequiredHops(c.q))
			for _, threads := range []int{1, 2} {
				res, err := parallel.PQMatch(cl, c.q, threads)
				if err != nil {
					t.Fatalf("%s n=%d b=%d: %v", c.name, workers, threads, err)
				}
				if !sameIDs(res.Matches, seq.Matches) {
					t.Errorf("%s n=%d b=%d: parallel=%v sequential=%v",
						c.name, workers, threads, res.Matches, seq.Matches)
				}
			}
		}
	}
}

func sameIDs(a, b []graph.NodeID) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestPQMatchEqualsSequentialGenerated(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(600, 17))
	patterns := gen.Patterns(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 3000, NegEdges: 1, Seed: 23}, 4)
	for pi, q := range patterns {
		need := parallel.RequiredHops(q)
		seq, err := match.QMatch(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		cl := cluster(t, g, 4, need)
		for _, engine := range []string{"qmatch", "qmatchn", "enum"} {
			res, err := parallel.Run(cl, q, engine, 2)
			if err != nil {
				t.Fatalf("pattern %d engine %v: %v", pi, engine, err)
			}
			if !sameIDs(res.Matches, seq.Matches) {
				t.Errorf("pattern %d engine %v: parallel=%d matches, sequential=%d\n%s",
					pi, engine, len(res.Matches), len(seq.Matches), q)
			}
		}
	}
}

func TestInsufficientHopsRejected(t *testing.T) {
	f := fixture.NewG1()
	cl := cluster(t, f.G, 2, 1) // Q2 needs d=2
	if _, err := parallel.PQMatch(cl, fixture.Q2(), 1); err == nil {
		t.Fatal("pattern beyond partition radius accepted")
	}
}

func TestWorkAccounting(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(800, 5))
	q := gen.Pattern(g, gen.PatternConfig{Nodes: 4, Edges: 4, RatioBP: 3000, NegEdges: 0, Seed: 2})
	cl1 := cluster(t, g, 1, parallel.RequiredHops(q))
	cl4 := cluster(t, g, 4, parallel.RequiredHops(q))

	r1, err := parallel.PQMatch(cl1, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := parallel.PQMatch(cl4, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalWork <= 0 || r1.SimWork <= 0 {
		t.Fatalf("work accounting empty: %+v", r1)
	}
	if r1.SimWork != r1.TotalWork {
		t.Errorf("single worker: SimWork %d != TotalWork %d", r1.SimWork, r1.TotalWork)
	}
	// Parallel scalability: with 4 workers the critical path must shrink.
	if r4.SimWork >= r1.SimWork {
		t.Errorf("SimWork did not shrink: n=1 %d, n=4 %d", r1.SimWork, r4.SimWork)
	}
	if !sameIDs(r1.Matches, r4.Matches) {
		t.Error("worker count changed the answer")
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	cl := cluster(t, fixture.NewG1().G, 2, 2)
	if _, err := parallel.Run(cl, fixture.Q2(), "bogus", 1); err == nil || !strings.Contains(err.Error(), `unknown engine "bogus"`) {
		t.Fatalf("Run with an unknown engine: err = %v", err)
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
func ownerless(p *partition.Partition) int {
	n := 0
	for _, f := range p.Fragments {
		if len(f.Nodes) > 0 && len(f.Owned) == 0 {
			n++
		}
	}
	return n
}

// TestOwnerlessFragmentAnswersNothing: with 5 workers at D=2, worker 0
// materialises {0,1} and owns nothing. Over that fragment alone node 0
// looks like an answer (its z = 1 has lost the edge 1→4 that disqualifies
// it); an evaluation that took "no owned nodes" for "no restriction"
// reported it.
func TestOwnerlessFragmentAnswersNothing(t *testing.T) {
	g := aGraph(6, [][2]graph.NodeID{{0, 0}, {0, 1}, {1, 4}, {2, 2}, {3, 0}, {4, 0}})
	q := chain(core.Exists(), core.Negated())
	p, err := partition.DPar(g, partition.Config{Workers: 5, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f := p.Fragments[0]; !reflect.DeepEqual(f.Nodes, []graph.NodeID{0, 1}) || len(f.Owned) != 0 {
		t.Fatalf("fragment 0 = nodes %v owned %v, want nodes [0 1] owning nothing", f.Nodes, f.Owned)
	}
	seq, err := match.QMatch(g, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Matches) != 0 {
		t.Fatalf("QMatch = %v, want no answer", seq.Matches)
	}
	for _, engine := range []string{"qmatch", "qmatchn", "enum"} {
		res, err := parallel.Run(parallel.NewCluster(p), q, engine, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 0 {
			t.Errorf("%s over the partition = %v, QMatch = []", engine, res.Matches)
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
			p, err := partition.DPar(g, partition.Config{Workers: workers, D: 2})
			if err != nil {
				t.Fatal(err)
			}
			met += ownerless(p)
			cl := parallel.NewCluster(p)
			for qi, q := range patterns {
				seq, err := match.QMatch(g, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err := parallel.PQMatch(cl, q, 1+rng.Intn(2))
				if err != nil {
					t.Fatal(err)
				}
				if !sameIDs(res.Matches, seq.Matches) {
					t.Fatalf("round %d, %d workers, pattern %d, edges %v: PQMatch = %v, QMatch = %v",
						round, workers, qi, edges, res.Matches, seq.Matches)
				}
			}
		}
	}
	if met == 0 {
		t.Fatal("the sweep met no fragment that materialises nodes and owns none")
	}
	t.Logf("owner-less non-empty fragments met: %d", met)
}
