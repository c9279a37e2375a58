package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
)

// checkCounts fails unless every count of m equals a fresh build over g.
func checkCounts(t *testing.T, m *Matcher, g *graph.Graph, ctx string) {
	t.Helper()
	for i, c := range m.counts {
		fresh := newCounts(c.p)
		fresh.build(g)
		for u := range c.state {
			if !slices.Equal(c.state[u], fresh.state[u]) {
				for w := range fresh.state[u] {
					if c.state[u][w] != fresh.state[u][w] {
						t.Fatalf("%s: positive %d, pattern node %s, graph node %d: kept verdicts %b, a fresh build %b",
							ctx, i, c.p.Nodes[u].Name, w, c.state[u][w], fresh.state[u][w])
					}
				}
				t.Fatalf("%s: positive %d, pattern node %s: %d verdicts kept, %d built", ctx, i, c.p.Nodes[u].Name, len(c.state[u]), len(fresh.state[u]))
			}
		}
	}
}

// ownedAnswers returns a fresh QMatch's answers of q over g among owned
// (nil: all), ascending.
func ownedAnswers(t *testing.T, g *graph.Graph, q *core.Pattern, owned []graph.NodeID) []graph.NodeID {
	t.Helper()
	res, err := match.QMatch(g, q, &match.Options{FocusRestrict: owned})
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

// TestCountsFollowChurn: an engine watching the benchmark's mix and the two
// patterns over labels the stream interns late — every one of them counted
// — answers at every version of fixture.Churn exactly as a fresh QMatch,
// restricted to the owned set on a fragment engine, and reports exactly the
// answers that came and went; its counts equal a fresh build throughout.
func TestCountsFollowChurn(t *testing.T) {
	var dsls []string
	for _, m := range fixture.Mix {
		dsls = append(dsls, m.DSL)
	}
	dsls = append(dsls, fixture.ChurnLate...)
	base := gen.Social(gen.DefaultSocial(150, 4))
	var half []graph.NodeID
	for v := 0; v < base.NumNodes(); v += 2 {
		half = append(half, graph.NodeID(v))
	}
	for _, tc := range []struct {
		name  string
		owned []graph.NodeID
	}{{"unrestricted", nil}, {"fragment", half}} {
		t.Run(tc.name, func(t *testing.T) {
			vg := graph.NewVersioned(base.Clone())
			e, err := NewEngine(vg.Graph(), tc.owned, nil)
			if err != nil {
				t.Fatal(err)
			}
			qs := make([]*core.Pattern, len(dsls))
			want := make([][]graph.NodeID, len(dsls))
			for i, dsl := range dsls {
				qs[i] = parsePattern(t, dsl)
				got, err := e.Watch(fmt.Sprintf("w%d", i), qs[i])
				if err != nil {
					t.Fatal(err)
				}
				if e.byName[fmt.Sprintf("w%d", i)].m.counts == nil {
					t.Fatalf("%q is not counted", dsl)
				}
				if want[i] = ownedAnswers(t, vg.Graph(), qs[i], tc.owned); !slices.Equal(got, want[i]) {
					t.Fatalf("w%d: initial answers %v, QMatch %v", i, got, want[i])
				}
			}
			churn := fixture.NewChurn(23)
			flips, lateFlips := 0, 0
			for round := 0; round < 160; round++ {
				ups := churn.Next(vg.Graph())
				old, err := vg.Apply(ups)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				deltas, err := e.Apply(old, vg.Graph(), nil)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for i, d := range deltas {
					ctx := fmt.Sprintf("round %d, %s", round, d.Name)
					now := ownedAnswers(t, vg.Graph(), qs[i], tc.owned)
					added, removed := subtractSorted(now, want[i]), subtractSorted(want[i], now)
					if !slices.Equal(d.Added, added) || !slices.Equal(d.Removed, removed) {
						t.Fatalf("%s: delta +%v -%v, QMatch moved +%v -%v (batch %v)", ctx, d.Added, d.Removed, added, removed, ups)
					}
					if got := e.byName[d.Name].m.Answers(); !slices.Equal(got, now) {
						t.Fatalf("%s: answers %v, QMatch %v", ctx, got, now)
					}
					if d.Affected < len(added)+len(removed) {
						t.Fatalf("%s: %d re-judged, %d flipped", ctx, d.Affected, len(added)+len(removed))
					}
					checkCounts(t, e.byName[d.Name].m, vg.Graph(), ctx)
					flips += len(added) + len(removed)
					if i >= len(fixture.Mix) && round == fixture.ChurnLabelsAt {
						lateFlips += len(added)
					}
					want[i] = now
				}
			}
			if flips == 0 || lateFlips == 0 {
				t.Fatalf("%d answers flipped, %d under the late labels: the stream does not exercise the counts", flips, lateFlips)
			}
		})
	}
}

// classBoundary lists one pattern per condition of the countable class
// that breaks it, and the radius-1 and radius-2 shapes inside it.
var classBoundary = []struct {
	name, dsl string
	countable bool
}{
	{"same-label-distance-2", "qgp\nn xo person *\nn p product\nn y person\ne xo p like\ne y p like\n", false},
	{"same-label-siblings", "qgp\nn xo person *\nn a product\nn b product\ne xo a like\ne xo b recom\n", false},
	{"cycle", "qgp\nn xo person *\nn z person\nn p product\ne xo z follow\ne z p like\ne xo p like\n", false},
	{"two-edges-one-pair", "qgp\nn xo person *\nn z person\ne xo z follow\ne z xo follow\n", false},
	{"quantified-toward-focus", "qgp\nn xo product *\nn z person\nn y person\ne z xo like\ne y z follow >=2\n", false},
	{"negated-closes-cycle", "qgp\nn xo person *\nn z person\nn p product\ne xo z follow\ne z p like\ne xo p like =0\n", false},
	{"inbound-existential", "qgp\nn xo product *\nn z person\ne z xo like\n", true},
	{"path2", "qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=2\ne z p recom >=1\n", true},
	{"negated-leaf", "qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p like =0\n", true},
}

// TestCountableClass: each boundary of the class is refused by the class
// check, and a pattern refused answers exactly through the search, batch
// after batch of random churn on hub graphs; the patterns inside the class
// answer exactly through the counts.
func TestCountableClass(t *testing.T) {
	for i, b := range classBoundary {
		t.Run(b.name, func(t *testing.T) {
			q := parsePattern(t, b.dsl)
			if got := countsOf(q) != nil; got != b.countable {
				t.Fatalf("countable = %v, want %v", got, b.countable)
			}
			r := rand.New(rand.NewSource(int64(300 + i)))
			flips := 0
			for round := 0; round < 60; round++ {
				g := reachGraph(r)
				vg := graph.NewVersioned(g.Clone())
				m, err := NewMatcher(vg.Graph(), q)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 4; step++ {
					before := m.Answers()
					old, err := vg.Apply(reachBatch(r, vg.Graph()))
					if err != nil {
						t.Fatal(err)
					}
					d, err := m.ApplyShared(old, vg.Graph(), nil)
					if err != nil {
						t.Fatal(err)
					}
					now := ownedAnswers(t, vg.Graph(), q, nil)
					if !slices.Equal(m.Answers(), now) || !slices.Equal(d.Added, subtractSorted(now, before)) || !slices.Equal(d.Removed, subtractSorted(before, now)) {
						t.Fatalf("round %d step %d: answers %v (delta %+v), QMatch %v", round, step, m.Answers(), d, now)
					}
					flips += len(d.Added) + len(d.Removed)
					if b.countable {
						checkCounts(t, m, vg.Graph(), fmt.Sprintf("round %d step %d", round, step))
					}
				}
			}
			if flips == 0 {
				t.Fatal("no answer ever flipped")
			}
		})
	}
}

// TestMixIsCountable: every pattern of the benchmark's mix, its four watch
// shapes and the reach tests' patterns but the one whose quantified edge
// points toward the focus are in the class.
func TestMixIsCountable(t *testing.T) {
	var dsls []string
	for _, m := range fixture.Mix {
		dsls = append(dsls, m.DSL)
	}
	for _, quant := range []string{">=3", "=0", "<=5", ">=10"} {
		dsls = append(dsls, "qgp\nn xo person *\nn z person\ne xo z follow "+quant+"\n")
	}
	for _, p := range reachPatterns {
		if p.name != "inbound" {
			dsls = append(dsls, p.dsl)
		}
	}
	for _, dsl := range dsls {
		if countsOf(parsePattern(t, dsl)) == nil {
			t.Errorf("not countable: %q", dsl)
		}
	}
	if countsOf(parsePattern(t, reachPatterns[7].dsl)) != nil {
		t.Error("inbound's quantified edge points toward the focus, and it counted")
	}
}

// FuzzWatchCounters: on FuzzReachAffected's inputs — a batch decoded from
// the bytes over fuzzBase, then a second one decoded from their tail — a
// matcher of every countable reach pattern answers as a fresh QMatch after
// each batch, its delta is what moved, and its counts equal a fresh build.
func FuzzWatchCounters(f *testing.F) {
	for _, s := range reachSeeds {
		f.Add(s)
	}
	var qs []*core.Pattern
	for _, q := range parseReachPatterns(f) {
		if countsOf(q) != nil {
			qs = append(qs, q)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vg := graph.NewVersioned(fuzzBase())
		ms := make([]*Matcher, len(qs))
		for i, q := range qs {
			var err error
			if ms[i], err = NewMatcher(vg.Graph(), q); err != nil {
				t.Fatal(err)
			}
		}
		for k, batch := range [][]byte{data, data[min(1, len(data)):]} {
			old, err := vg.Apply(decodeBatch(batch))
			if err != nil {
				return
			}
			for i, m := range ms {
				before := m.Answers()
				d, err := m.ApplyShared(old, vg.Graph(), nil)
				if err != nil {
					t.Fatal(err)
				}
				now := ownedAnswers(t, vg.Graph(), qs[i], nil)
				if !slices.Equal(m.Answers(), now) || !slices.Equal(d.Added, subtractSorted(now, before)) || !slices.Equal(d.Removed, subtractSorted(before, now)) {
					t.Fatalf("batch %d, pattern %d: answers %v (delta %+v), QMatch %v", k, i, m.Answers(), d, now)
				}
				checkCounts(t, m, vg.Graph(), fmt.Sprintf("batch %d, pattern %d", k, i))
			}
		}
	})
}

// subtractSorted returns a \ b for ascending slices.
func subtractSorted(a, b []graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range a {
		if _, found := slices.BinarySearch(b, v); !found {
			out = append(out, v)
		}
	}
	return out
}
