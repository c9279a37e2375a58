package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// randGraph builds a small random labeled graph.
func randGraph(r *rand.Rand, maxN int) *graph.Graph {
	n := 3 + r.Intn(maxN-2)
	nodeLabels := []string{"a", "b", "c"}
	edgeLabels := []string{"R", "S"}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(nodeLabels[r.Intn(len(nodeLabels))])
	}
	m := r.Intn(3 * n)
	for i := 0; i < m; i++ {
		from := graph.NodeID(r.Intn(n))
		to := graph.NodeID(r.Intn(n))
		if from == to {
			continue
		}
		g.AddEdge(from, to, edgeLabels[r.Intn(len(edgeLabels))])
	}
	g.Finalize()
	return g
}

// randQuantifier draws a quantifier with a bias toward the interesting
// kinds.
func randQuantifier(r *rand.Rand) core.Quantifier {
	switch r.Intn(13) {
	case 0, 1, 2, 3:
		return core.Exists()
	case 4, 5:
		return core.Count(core.GE, 1+r.Intn(3))
	case 6:
		return core.Ratio(core.GE, 1+r.Intn(10000))
	case 7:
		return core.Universal()
	case 8:
		return core.Count(core.EQ, 1+r.Intn(2))
	case 9:
		return core.Count(core.LE, 1+r.Intn(3))
	case 10:
		return core.Count(core.NE, r.Intn(3))
	case 11:
		return core.Ratio(core.LE, 1+r.Intn(10000))
	default:
		return core.Negated()
	}
}

// randPattern builds a random tree-shaped QGP of 2..5 nodes rooted at the
// focus (the shape the paper's restriction targets), retrying until it
// validates.
func randPattern(r *rand.Rand) *core.Pattern {
	nodeLabels := []string{"a", "b", "c"}
	edgeLabels := []string{"R", "S"}
	for {
		p := core.NewPattern()
		n := 2 + r.Intn(4)
		for i := 0; i < n; i++ {
			p.AddNode(fmt.Sprintf("u%d", i), nodeLabels[r.Intn(len(nodeLabels))])
		}
		for i := 1; i < n; i++ {
			parent := fmt.Sprintf("u%d", r.Intn(i))
			child := fmt.Sprintf("u%d", i)
			q := randQuantifier(r)
			if r.Intn(4) == 0 && !q.IsNegation() {
				// Occasionally reverse the edge (child points at parent).
				p.AddEdge(child, parent, edgeLabels[r.Intn(len(edgeLabels))], q)
			} else {
				p.AddEdge(parent, child, edgeLabels[r.Intn(len(edgeLabels))], q)
			}
		}
		if p.Validate() != nil {
			continue
		}
		if pi, _ := p.Pi(); !pi.Connected() {
			continue
		}
		return p
	}
}

// TestDifferentialRandom cross-checks QMatch, QMatchN and Enum against the
// naive Reference evaluator on seeded random instances. This is the
// load-bearing correctness test for the core contribution.
func TestDifferentialRandom(t *testing.T) {
	iters := 400
	if testing.Short() {
		iters = 60
	}
	for seed := 0; seed < iters; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := randGraph(r, 10)
		q := randPattern(r)

		want, err := Reference(g, q)
		if err != nil {
			t.Fatalf("seed %d: Reference: %v\npattern:\n%s", seed, err, q)
		}
		for name, algo := range algorithms {
			res, err := algo(g, q, nil)
			if err != nil {
				t.Fatalf("seed %d: %s: %v\npattern:\n%s", seed, name, err, q)
			}
			got := res.Matches
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				var buf string
				gw := &stringWriter{&buf}
				g.WriteTo(gw)
				t.Fatalf("seed %d: %s = %v, want %v\npattern:\n%s\ngraph:\n%s",
					seed, name, got, want, q, buf)
			}
		}
	}
}

type stringWriter struct{ s *string }

func (w *stringWriter) Write(p []byte) (int, error) {
	*w.s += string(p)
	return len(p), nil
}

// TestDifferentialPositiveLarger drives the three engines (not Reference,
// which is too slow) against each other on somewhat larger instances.
func TestDifferentialPositiveLarger(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 20
	}
	for seed := 1000; seed < 1000+iters; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := randGraph(r, 60)
		q := randPattern(r)

		var want []graph.NodeID
		first := true
		for name, algo := range algorithms {
			res, err := algo(g, q, nil)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, name, err)
			}
			if first {
				want = res.Matches
				first = false
				continue
			}
			if len(res.Matches) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(res.Matches, want) {
				t.Fatalf("seed %d: %s = %v, others = %v\npattern:\n%s",
					seed, name, res.Matches, want, q)
			}
		}
	}
}

// TestDifferentialLabelOnlyCandidates exercises the engine without the
// simulation prefilter (label-only candidate sets) against Reference, so
// both candidate strategies stay verified.
func TestDifferentialLabelOnlyCandidates(t *testing.T) {
	for seed := 3000; seed < 3150; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := randGraph(r, 10)
		q := randPattern(r)
		want, err := Reference(g, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prepareRun(g, q, nil, EngineEnum)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Matches) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(res.Matches, want) {
			t.Fatalf("seed %d: label-only eval = %v, want %v\npattern:\n%s",
				seed, res.Matches, want, q)
		}
	}
}

// TestQMatchNeverMoreVerificationsThanEnum checks the paper's efficiency
// claim on random instances: QMatch's pruning and early acceptance never
// inspect more complete isomorphisms than enumerate-then-verify.
func TestQMatchNeverMoreVerificationsThanEnum(t *testing.T) {
	for seed := 2000; seed < 2100; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := randGraph(r, 40)
		q := randPattern(r)
		rq, err := QMatch(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Enum(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rq.Metrics.Verifications > re.Metrics.Verifications {
			t.Errorf("seed %d: QMatch verified %d > Enum %d\npattern:\n%s",
				seed, rq.Metrics.Verifications, re.Metrics.Verifications, q)
		}
	}
}
