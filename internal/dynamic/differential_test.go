package dynamic

// Differential verification of the versioned in-place graph core against
// the rebuild-the-world oracle. Apply (the legacy path) re-materializes a
// fresh finalized graph per batch and is easy to trust; graph.Versioned.Apply
// edits the same graph in place under copy-on-write. The two must stay
// bit-exact on everything observable: the finalized graph, the touched
// set, error behaviour (including leaving the versioned state untouched
// on rejected batches), and the answer deltas of standing matchers.
//
// Comparisons are canonical — node label names by id and "from to label"
// edge strings — never LabelID values or byLabel order: the in-place
// graph keeps its original interner order while each rebuilt oracle gets
// a fresh interner, so internal ids legitimately diverge.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// canon renders a graph as interner-independent node and edge lists.
func canon(g graph.View) (nodes, edges []string) {
	nodes = make([]string, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		nodes[v] = g.NodeLabelName(graph.NodeID(v))
		for _, e := range g.Out(graph.NodeID(v)) {
			edges = append(edges, fmt.Sprintf("%d %d %s", v, e.To, g.LabelName(e.Label)))
		}
	}
	sort.Strings(edges)
	return nodes, edges
}

func requireCanonEqual(t *testing.T, want, got graph.View, ctx string) {
	t.Helper()
	wn, we := canon(want)
	gn, ge := canon(got)
	if !reflect.DeepEqual(wn, gn) {
		t.Fatalf("%s: node labels diverge (%d vs %d nodes)", ctx, len(wn), len(gn))
	}
	if !reflect.DeepEqual(we, ge) {
		for i := 0; i < len(we) || i < len(ge); i++ {
			var a, b string
			if i < len(we) {
				a = we[i]
			}
			if i < len(ge) {
				b = ge[i]
			}
			if a != b {
				t.Fatalf("%s: edge sets diverge at #%d: oracle %q vs versioned %q", ctx, i, a, b)
			}
		}
		t.Fatalf("%s: edge sets diverge", ctx)
	}
	if want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: NumEdges %d vs %d", ctx, want.NumEdges(), got.NumEdges())
	}
}

// isolated reports whether v currently has no incident edges.
func isolated(g graph.View, v graph.NodeID) bool {
	return len(g.Out(v)) == 0 && len(g.In(v)) == 0
}

var batchLabels = []string{"follow", "like", "recom", "in", "buy", "newkind"}

// randomBatch draws 1..6 updates against a graph with n nodes. Every op
// kind appears: node adds, edge adds/removes (sometimes of edges that do
// not exist — a no-op remove both paths must agree on), node removals
// including tombstone re-isolation of already-isolated nodes, and —
// when invalid is true — one out-of-range op both paths must reject.
func randomBatch(r *rand.Rand, g graph.View, invalid bool) []graph.Mutation {
	n := graph.NodeID(g.NumNodes())
	size := 1 + r.Intn(6)
	ups := make([]graph.Mutation, 0, size+1)
	added := graph.NodeID(0) // AddNode ops earlier in this batch extend the range
	for i := 0; i < size; i++ {
		lim := n + added
		switch r.Intn(10) {
		case 0:
			ups = append(ups, graph.AddNode(batchLabels[r.Intn(len(batchLabels))]))
			added++
		case 1, 2:
			// Remove an existing edge when we can find one, else a
			// (probably absent) random one.
			v := graph.NodeID(r.Int31n(int32(n)))
			if out := g.Out(v); len(out) > 0 {
				e := out[r.Intn(len(out))]
				ups = append(ups, graph.RemoveEdge(v, e.To, g.LabelName(e.Label)))
			} else {
				ups = append(ups, graph.RemoveEdge(graph.NodeID(r.Int31n(int32(lim))), graph.NodeID(r.Int31n(int32(lim))), batchLabels[r.Intn(len(batchLabels))]))
			}
		case 3:
			// Tombstone: sometimes re-isolate a node that is already
			// isolated (or was removed earlier in this run).
			v := graph.NodeID(r.Int31n(int32(lim)))
			if r.Intn(2) == 0 {
				for probe := graph.NodeID(0); probe < n; probe++ {
					if isolated(g, graph.NodeID(probe)) {
						v = probe
						break
					}
				}
			}
			ups = append(ups, graph.RemoveNode(v))
		default:
			ups = append(ups, graph.AddEdge(graph.NodeID(r.Int31n(int32(lim))), graph.NodeID(r.Int31n(int32(lim))), batchLabels[r.Intn(len(batchLabels))]))
		}
	}
	if invalid {
		at := r.Intn(len(ups) + 1)
		bad := graph.AddEdge(n+added+5, 0, "follow")
		if r.Intn(2) == 0 {
			bad = graph.RemoveNode(-1)
		}
		ups = append(ups[:at:at], append([]graph.Mutation{bad}, ups[at:]...)...)
	}
	return ups
}

// TestDifferentialVersionedVsOracle drives the versioned core and the
// rebuild oracle through the same randomized batch sequences and demands
// identical graphs, touched sets, error behaviour, and matcher answers.
func TestDifferentialVersionedVsOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			base := gen.Social(gen.DefaultSocial(120, seed))
			q := gen.Pattern(base, gen.PatternConfig{Nodes: 3, Edges: 3, RatioBP: 3000, NegEdges: 1, Seed: 31})

			oracle := base.Clone()
			vg := graph.NewVersioned(base.Clone())

			// One standing matcher maintained incrementally over the
			// versioned core; the oracle side recomputes from scratch.
			mv, err := NewMatcher(vg.Graph(), q)
			if err != nil {
				t.Fatal(err)
			}

			for round := 0; round < 30; round++ {
				ctx := fmt.Sprintf("round %d", round)
				wantErr := round%7 == 6
				ups := randomBatch(r, vg.Graph(), wantErr)

				preNodes, preEdges := canon(vg.Graph())
				ng, touchedO, errO := Apply(oracle, ups)
				old, touchedV, errV := vg.Apply(ups)

				if (errO == nil) != (errV == nil) {
					t.Fatalf("%s: error divergence: oracle=%v versioned=%v (batch %+v)", ctx, errO, errV, ups)
				}
				if errO != nil {
					// A rejected batch must leave the versioned graph at
					// its prior state (the oracle never mutates its input).
					pn, pe := canon(vg.Graph())
					if !reflect.DeepEqual(pn, preNodes) || !reflect.DeepEqual(pe, preEdges) {
						t.Fatalf("%s: rejected batch mutated the versioned graph", ctx)
					}
					continue
				}
				oracle = ng
				if !reflect.DeepEqual(touchedO, touchedV) {
					t.Fatalf("%s: touched sets diverge: oracle %v vs versioned %v (batch %+v)", ctx, touchedO, touchedV, ups)
				}
				requireCanonEqual(t, oracle, vg.Graph(), ctx)
				if oracle.NumNodes() != vg.Graph().NumNodes() {
					t.Fatalf("%s: NumNodes %d vs %d", ctx, oracle.NumNodes(), vg.Graph().NumNodes())
				}

				// Matcher deltas: the incrementally maintained answers must
				// equal a from-scratch evaluation over the oracle graph, and
				// the delta must be consistent with the answer set.
				d, err := mv.ApplyShared(old, vg.Graph(), touchedV)
				if err != nil {
					t.Fatalf("%s: ApplyShared: %v", ctx, err)
				}
				om, err := NewMatcher(oracle, q)
				if err != nil {
					t.Fatalf("%s: oracle matcher: %v", ctx, err)
				}
				if got, want := mv.Answers(), om.Answers(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: answers diverge: incremental %v vs oracle %v (delta %+v)", ctx, got, want, d)
				}
				now := make(map[graph.NodeID]bool)
				for _, v := range mv.Answers() {
					now[v] = true
				}
				for _, v := range d.Added {
					if !now[v] {
						t.Fatalf("%s: delta added %d not in answer set", ctx, v)
					}
				}
				for _, v := range d.Removed {
					if now[v] {
						t.Fatalf("%s: delta removed %d still in answer set", ctx, v)
					}
				}
			}
		})
	}
}

// TestVersionedRollbackRestoresCanonical applies random batches and rolls
// each one back, asserting the graph always returns to its pre-batch
// canonical form (the interner may retain labels a rolled-back batch
// introduced; that is invisible canonically).
func TestVersionedRollbackRestoresCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	g := gen.Social(gen.DefaultSocial(80, 99))
	vg := graph.NewVersioned(g.Clone())
	wantNodes, wantEdges := canon(g)

	for round := 0; round < 25; round++ {
		ups := randomBatch(r, vg.Graph(), false)
		old, _, err := vg.Apply(ups)
		if err != nil {
			continue
		}
		if err := vg.Rollback(old); err != nil {
			t.Fatalf("round %d: rollback: %v", round, err)
		}
		gn, ge := canon(vg.Graph())
		if !reflect.DeepEqual(gn, wantNodes) || !reflect.DeepEqual(ge, wantEdges) {
			t.Fatalf("round %d: rollback did not restore the pre-batch graph (batch %+v)", round, ups)
		}
		if vg.Graph().NumEdges() != g.NumEdges() || vg.Graph().NumNodes() != g.NumNodes() {
			t.Fatalf("round %d: counts diverge after rollback", round)
		}
	}
}
