package ha

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/server"
)

var chaosPatterns = []string{
	"qgp\nn xo person *\nn z person\ne xo z follow >=3\n",
	"qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p bad_rating =0\n",
}

func mustParse(t testing.TB, dsl string) *core.Pattern {
	t.Helper()
	q, err := core.Parse(dsl)
	if err != nil {
		t.Fatalf("parse %q: %v", dsl, err)
	}
	return q
}

func applySpecs(t testing.TB, g *graph.Graph, specs []server.UpdateSpec) *graph.Graph {
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

func oracleAnswers(t testing.TB, g *graph.Graph, q *core.Pattern) []graph.NodeID {
	t.Helper()
	res, err := match.QMatch(g, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

func sortedNodeSet(m map[graph.NodeID]bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestChaosWorkerKilledMidStream is the chaos acceptance criterion: an
// embedded 4-worker cluster under a randomized stream of updates and
// standing watches has one worker killed abruptly mid-stream and keeps
// serving; the final answer sets and every accumulated delta exactly
// equal a single-process dynamic.Matcher oracle. With k=2 the recovery
// path is warm-replica promotion; with k=1 it is a re-ship of the
// fragment from the authoritative graph to a fresh pool session.
func TestChaosWorkerKilledMidStream(t *testing.T) {
	cases := []struct {
		name     string
		replicas int
	}{
		{"promote-warm-replica", 2},
		{"reship-from-authoritative-graph", 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := gen.Social(gen.DefaultSocial(240, 31))
			pool := NewSpawnPool(4, server.Config{})
			ts, err := pool.Primaries(4)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cluster.New(g, ts, cluster.Config{D: 2, Replicas: tc.replicas, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			ref := c.Graph()

			// Standing watches with a single-process oracle each, plus the
			// accumulated answer set replayed from the cluster's deltas.
			oracles := make(map[string]*dynamic.Matcher)
			accumulated := make(map[string]map[graph.NodeID]bool)
			addWatch := func(name, dsl string) {
				q := mustParse(t, dsl)
				got, err := c.Watch(name, q)
				if err != nil {
					t.Fatalf("watch %s: %v", name, err)
				}
				m, err := dynamic.NewMatcher(ref, q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, m.Answers()) {
					t.Fatalf("watch %s initial answers %v != oracle %v", name, got, m.Answers())
				}
				oracles[name] = m
				acc := make(map[graph.NodeID]bool)
				for _, v := range got {
					acc[v] = true
				}
				accumulated[name] = acc
			}
			addWatch("w0", chaosPatterns[0])

			r := rand.New(rand.NewSource(7))
			for round := 0; round < 14; round++ {
				if round == 6 {
					// Abrupt mid-stream death of worker 1: its session
					// drops without any goodbye; the next operation that
					// touches its fragment trips the failover.
					ts[1].Close()
				}
				if round == 9 {
					// Standing watches registered after the failure keep
					// working too.
					addWatch("late", chaosPatterns[1])
				}
				n := int64(ref.NumNodes())
				var specs []server.UpdateSpec
				for i := 0; i < 5; i++ {
					from, to := r.Int63n(n), r.Int63n(n)
					if from == to {
						to = (to + 1) % n
					}
					switch r.Intn(5) {
					case 0, 1:
						specs = append(specs, server.UpdateSpec{Op: "addEdge", From: from, To: to, Label: "follow"})
					case 2:
						specs = append(specs, server.UpdateSpec{Op: "removeEdge", From: from, To: to, Label: "follow"})
					case 3:
						specs = append(specs, server.UpdateSpec{Op: "removeNode", From: from})
					case 4:
						specs = append(specs,
							server.UpdateSpec{Op: "addNode", Label: "person"},
							server.UpdateSpec{Op: "addEdge", From: n, To: to, Label: "follow"})
						n++
					}
				}

				res, err := c.Update(specs)
				if err != nil {
					t.Fatalf("round %d: Update: %v", round, err)
				}
				ref = applySpecs(t, ref, specs)
				if res.Nodes != ref.NumNodes() || res.Edges != ref.NumEdges() {
					t.Fatalf("round %d: cluster %d/%d != oracle %d/%d",
						round, res.Nodes, res.Edges, ref.NumNodes(), ref.NumEdges())
				}

				deltaByWatch := make(map[string]server.WatchDelta)
				for _, d := range res.Deltas {
					deltaByWatch[d.Watch] = d
				}
				ups, _ := server.ToUpdates(specs)
				for name, m := range oracles {
					want, err := m.Apply(ups)
					if err != nil {
						t.Fatal(err)
					}
					got := deltaByWatch[name]
					if !sameIDs(got.Added, want.Added) || !sameIDs(got.Removed, want.Removed) {
						t.Fatalf("round %d watch %s: cluster delta +%v -%v != oracle +%v -%v",
							round, name, got.Added, got.Removed, want.Added, want.Removed)
					}
					acc := accumulated[name]
					for _, v := range got.Added {
						acc[graph.NodeID(v)] = true
					}
					for _, v := range got.Removed {
						delete(acc, graph.NodeID(v))
					}
					if !reflect.DeepEqual(sortedNodeSet(acc), m.Answers()) {
						t.Fatalf("round %d watch %s: accumulated answers %v != oracle %v",
							round, name, sortedNodeSet(acc), m.Answers())
					}
				}
			}

			// Fresh queries over the final graph equal the single-process
			// oracle for every pattern.
			for _, dsl := range chaosPatterns {
				q := mustParse(t, dsl)
				got, err := c.Match(q)
				if err != nil {
					t.Fatalf("final Match: %v", err)
				}
				want := oracleAnswers(t, ref, q)
				if !reflect.DeepEqual(emptyNotNil(got.Matches), emptyNotNil(want)) {
					t.Errorf("final pattern %q: cluster %v != oracle %v", dsl, got.Matches, want)
				}
			}
			// The killed worker was actually replaced: every fragment copy
			// probes healthy.
			probes, err := c.Probe()
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range probes {
				if pr.Primary != nil {
					t.Errorf("fragment %d primary unhealthy after chaos: %v", pr.Fragment, pr.Primary)
				}
			}
			if tc.replicas > 1 {
				// Promotion consumed fragment 1's warm replica.
				if counts := replicaCounts(t, c); counts[1] != 0 {
					t.Errorf("fragment 1 replicas = %d after promotion, want 0 (counts %v)", counts[1], counts)
				}
			}
		})
	}
}

func sameIDs(got []int64, want []graph.NodeID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != int64(want[i]) {
			return false
		}
	}
	return true
}

func emptyNotNil(vs []graph.NodeID) []graph.NodeID {
	if vs == nil {
		return []graph.NodeID{}
	}
	return vs
}
