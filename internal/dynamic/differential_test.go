package dynamic

// Differential verification of the versioned in-place graph core against
// the rebuild-the-world oracle. Apply (the legacy path) re-materializes a
// fresh finalized graph per batch and is easy to trust; graph.Versioned.Apply
// edits the same graph in place under copy-on-write. The two must stay
// bit-exact on everything observable: the finalized graph, error behaviour
// (including leaving the versioned state untouched on rejected batches),
// and the answer deltas of standing matchers; and the versioned graph's log
// must replay every version since one it reaches back to.
//
// Comparisons are canonical — node label names by id and "from to label"
// edge strings — never LabelID values or byLabel order: the in-place
// graph keeps its original interner order while each rebuilt oracle gets
// a fresh interner, so internal ids legitimately diverge.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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

// checkLog holds g's log against the edge sets of earlier versions, held
// in canon's form: for each held version the log reaches back to, the
// edits logged since, folded over that version's edges, give g's edges, and
// none contradicts the set it folds over (an edge added that is there, or
// removed that is not). It returns the held versions the log reached.
func checkLog(t *testing.T, g *graph.Graph, held map[graph.Version][]string, what string) map[graph.Version]bool {
	t.Helper()
	_, now := canon(g)
	reached := make(map[graph.Version]bool)
	for v, edges := range held {
		edits, ok := g.EditsSince(v)
		if !ok {
			continue
		}
		reached[v] = true
		set := make(map[string]bool, len(edges))
		for _, s := range edges {
			set[s] = true
		}
		for _, ed := range edits {
			s := fmt.Sprintf("%d %d %s", ed.From, ed.To, g.LabelName(ed.Label))
			if set[s] == ed.Added {
				t.Fatalf("%s: the log since version %d edits %q (added %v) against its edge set", what, v, s, ed.Added)
			}
			if ed.Added {
				set[s] = true
			} else {
				delete(set, s)
			}
		}
		folded := make([]string, 0, len(set))
		for s := range set {
			folded = append(folded, s)
		}
		sort.Strings(folded)
		if !reflect.DeepEqual(folded, now) {
			t.Fatalf("%s: the log since version %d folds to %d edges, the graph has %d", what, v, len(folded), len(now))
		}
	}
	return reached
}

func requireCanonEqual(t *testing.T, want, got *graph.Graph, ctx string) {
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
			ups = append(ups, graph.Mutation{Op: graph.MutRemoveNode, From: v})
		default:
			ups = append(ups, graph.AddEdge(graph.NodeID(r.Int31n(int32(lim))), graph.NodeID(r.Int31n(int32(lim))), batchLabels[r.Intn(len(batchLabels))]))
		}
	}
	if invalid {
		at := r.Intn(len(ups) + 1)
		bad := graph.AddEdge(n+added+5, 0, "follow")
		if r.Intn(2) == 0 {
			bad = graph.Mutation{Op: graph.MutRemoveNode, From: -1}
		}
		ups = append(ups[:at:at], append([]graph.Mutation{bad}, ups[at:]...)...)
	}
	return ups
}

// TestDifferentialVersionedVsOracle drives the versioned core and the
// rebuild oracle through the same randomized batch sequences and demands
// identical graphs, error behaviour, and matcher answers; the versioned
// batch's net edits are the oracle's edge-set difference, and the log
// replays every version since one it reaches back to.
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
			held := make(map[graph.Version][]string)
			spanned := 0 // checks over more than one logged version

			for round := 0; round < 30; round++ {
				ctx := fmt.Sprintf("round %d", round)
				wantErr := round%7 == 6
				ups := randomBatch(r, vg.Graph(), wantErr)

				preNodes, preEdges := canon(vg.Graph())
				pre := vg.Graph().Version()
				held[pre] = preEdges
				ng, _, errO := Apply(oracle, ups)
				old, errV := vg.Apply(ups)

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
				requireCanonEqual(t, oracle, vg.Graph(), ctx)
				_, postEdges := canon(ng)
				if gotNew, gotGone := editStrings(vg.Graph(), old.Edits()); !slices.Equal(gotNew, sortedMinus(postEdges, preEdges)) || !slices.Equal(gotGone, sortedMinus(preEdges, postEdges)) {
					t.Fatalf("%s: edits +%v -%v, the oracle's edge sets differ by +%v -%v (batch %+v)", ctx, gotNew, gotGone, sortedMinus(postEdges, preEdges), sortedMinus(preEdges, postEdges), ups)
				}
				reached := checkLog(t, vg.Graph(), held, ctx)
				if !reached[pre] && len(old.Edits()) <= vg.Graph().NumNodes()/8 {
					t.Fatalf("%s: the log dropped a batch of %d edits on %d nodes", ctx, len(old.Edits()), vg.Graph().NumNodes())
				}
				for v := range reached {
					if v+1 < vg.Graph().Version() {
						spanned++
					}
				}
				if oracle.NumNodes() != vg.Graph().NumNodes() {
					t.Fatalf("%s: NumNodes %d vs %d", ctx, oracle.NumNodes(), vg.Graph().NumNodes())
				}

				// Matcher deltas: the incrementally maintained answers must
				// equal a from-scratch evaluation over the oracle graph, and
				// the delta must be consistent with the answer set.
				d, err := mv.ApplyShared(old, vg.Graph(), nil)
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
			if spanned == 0 {
				t.Fatal("coverage: the log never reached back over two versions")
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
	held := make(map[graph.Version][]string)
	spanned := 0 // checks after a rollback over more than its own version

	for round := 0; round < 25; round++ {
		ups := randomBatch(r, vg.Graph(), false)
		held[vg.Graph().Version()] = wantEdges
		old, err := vg.Apply(ups)
		if err != nil {
			continue
		}
		checkLog(t, vg.Graph(), held, fmt.Sprintf("round %d", round))
		_, edges := canon(vg.Graph())
		held[vg.Graph().Version()] = edges
		n := len(old.Edits())
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
		reached := checkLog(t, vg.Graph(), held, fmt.Sprintf("round %d rolled back", round))
		if !reached[vg.Graph().Version()-1] && n <= g.NumNodes()/8 {
			t.Fatalf("round %d: the log dropped a rollback of %d edits on %d nodes", round, n, g.NumNodes())
		}
		for v := range reached {
			if v+1 < vg.Graph().Version() {
				spanned++
			}
		}
	}
	if spanned == 0 {
		t.Fatal("coverage: the log never reached back over a rollback and its batch")
	}
}
