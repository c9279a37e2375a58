package dynamic

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/obs"
)

// enginePatterns are four distinct radius-1 patterns; name i holds pattern
// i % 4, so eight names make four groups of two.
var enginePatterns = []string{
	"qgp\nn xo person *\nn z person\ne xo z follow >=3\n",
	"qgp\nn xo person *\nn z person\ne xo z follow =0\n",
	"qgp\nn xo person *\nn z person\ne xo z follow <=5\n",
	"qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p like =0\n",
}

func enginePattern(t *testing.T, i int) *core.Pattern {
	t.Helper()
	q, err := core.Parse(enginePatterns[i%len(enginePatterns)])
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// groups returns the number of distinct patterns e's names hold.
func groups(e *Engine) (n int) {
	for _, en := range e.patterns {
		if en.gr != nil {
			n++
		}
	}
	return n
}

// evaluations finishes tr, the trace of one Apply or Assign, and counts
// the group evaluations it made: one dynamic.verify span each.
func evaluations(tr *obs.Trace) (n int) {
	for _, sp := range tr.Finish(nil).Spans {
		if sp.Name == "dynamic.verify" {
			n++
		}
	}
	return n
}

// TestEngineSharesEvaluation: eight names over four patterns are four
// matchers, each batch evaluates each pattern once, and every name gets
// its group's delta — checked against one standalone matcher per name, on
// an unrestricted session and on a fragment owning every other node.
func TestEngineSharesEvaluation(t *testing.T) {
	base := gen.Social(gen.DefaultSocial(120, 5))
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
			oracles := make(map[string]*Matcher)
			for i := 0; i < 8; i++ {
				name, q := fmt.Sprintf("w%d", i), enginePattern(t, i)
				got, err := e.Watch(name, q)
				if err != nil {
					t.Fatal(err)
				}
				var own *focusSet // the standalone matcher's own copy of the owned set
				if tc.owned != nil {
					if own, err = newFocusSet(vg.Graph(), tc.owned); err != nil {
						t.Fatal(err)
					}
				}
				m, err := newMatcher(vg.Graph(), q, own, func(prep *match.Prepared) *match.Bound { return prep.Bind(vg.Graph()) })
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, m.Answers()) {
					t.Fatalf("%s: initial answers %v, standalone %v", name, got, m.Answers())
				}
				oracles[name] = m
			}
			if e.Names() != 8 || groups(e) != 4 {
				t.Fatalf("names=%d groups=%d, want 8 and 4", e.Names(), groups(e))
			}

			r := rand.New(rand.NewSource(17))
			changed := 0
			for round := 0; round < 40; round++ {
				old, err := vg.Apply(randomBatch(r, vg.Graph(), false))
				if err != nil {
					t.Fatal(err)
				}
				tr := (*obs.Tracer)(nil).Join("update", 0)
				deltas, err := e.Apply(old, vg.Graph(), tr)
				if err != nil {
					t.Fatal(err)
				}
				if len(deltas) != 8 {
					t.Fatalf("round %d: %d deltas, want one per name", round, len(deltas))
				}
				// One evaluation per pattern: four groups' candidates
				// re-judged, where per-name evaluation would have
				// re-judged every name's.
				perGroup, perName := 0, 0
				seen := make(map[*group]bool)
				for i, d := range deltas {
					if want := fmt.Sprintf("w%d", i); d.Name != want {
						t.Fatalf("round %d: delta %d is for %q, want %q (ascending names)", round, i, d.Name, want)
					}
					perName += d.Affected
					if gr := e.byName[d.Name]; !seen[gr] {
						seen[gr] = true
						perGroup += d.Affected
					}
					want, err := oracles[d.Name].ApplyShared(old, vg.Graph(), nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(d.Delta, want) {
						t.Fatalf("round %d %s: delta %+v, standalone %+v", round, d.Name, d.Delta, want)
					}
					// A fragment reports its owned candidates only.
					if tc.owned != nil && slices.ContainsFunc(append(slices.Clone(d.Added), d.Removed...), func(v graph.NodeID) bool { return v%2 != 0 }) {
						t.Fatalf("round %d %s: delta %+v names a node the fragment does not own", round, d.Name, d.Delta)
					}
					changed += len(d.Added) + len(d.Removed)
				}
				if n := evaluations(tr); n != 4 || perName != 2*perGroup {
					t.Fatalf("round %d: %d evaluations re-judging %d candidates per name, %d per pattern; want 4 and twice as many per name", round, n, perName, perGroup)
				}
			}
			if changed == 0 {
				t.Fatal("no delta ever carried a change: the batches do not exercise the watches")
			}
			for name, m := range oracles {
				if got := e.byName[name].m.Answers(); !reflect.DeepEqual(got, m.Answers()) {
					t.Fatalf("%s: answers %v, standalone %v", name, got, m.Answers())
				}
			}
		})
	}
}

// TestEngineGroupLifetime: a group lives as long as one name holds its
// pattern; duplicate and unknown names are errors.
func TestEngineGroupLifetime(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(60, 3))
	e, err := NewEngine(g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b", "a"} {
		if _, err := e.Watch(name, enginePattern(t, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Watch("c", enginePattern(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Watch("a", enginePattern(t, 2)); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if e.Names() != 3 || groups(e) != 2 {
		t.Fatalf("names=%d groups=%d, want 3 and 2", e.Names(), groups(e))
	}
	shared := e.byName["a"]
	if shared != e.byName["b"] || shared == e.byName["c"] {
		t.Fatal("names of one pattern do not share a group, or distinct patterns do")
	}
	if err := e.Unwatch("a"); err != nil {
		t.Fatal(err)
	}
	if groups(e) != 2 || e.byName["b"] != shared {
		t.Fatal("unwatching one of two names dropped their group")
	}
	if err := e.Unwatch("b"); err != nil {
		t.Fatal(err)
	}
	if e.Names() != 1 || groups(e) != 1 {
		t.Fatalf("names=%d groups=%d after the pattern's last name left, want 1 and 1", e.Names(), groups(e))
	}
	if err := e.Unwatch("b"); err == nil {
		t.Fatal("unwatch of an unknown name accepted")
	}
	// A pattern coming back is evaluated afresh.
	if _, err := e.Watch("b", enginePattern(t, 0)); err != nil || e.byName["b"] == shared {
		t.Fatalf("re-registered pattern reused a freed group (err %v)", err)
	}
}

// TestEngineAssign: nodes assigned to a fragment are evaluated once per
// pattern, the answers they add are reported under every name, and the
// owned list stays sorted without a rebuild.
func TestEngineAssign(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(100, 8))
	var first, rest []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		if v%3 == 0 {
			first = append(first, graph.NodeID(v))
		} else {
			rest = append(rest, graph.NodeID(v))
		}
	}
	e, err := NewEngine(g, first, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A fragment's watch answers for exactly the owned share of the whole
	// graph's answers.
	initial := make([][]graph.NodeID, 8)
	for i := range initial {
		var err error
		if initial[i], err = e.Watch(fmt.Sprintf("w%d", i), enginePattern(t, i)); err != nil {
			t.Fatal(err)
		}
		whole, err := NewMatcher(g, enginePattern(t, i))
		if err != nil {
			t.Fatal(err)
		}
		var want []graph.NodeID
		for _, v := range whole.Answers() {
			if v%3 == 0 {
				want = append(want, v)
			}
		}
		if !slices.Equal(initial[i], want) {
			t.Fatalf("w%d: fragment answers %v, owned share of the whole graph's %v", i, initial[i], want)
		}
	}
	tr := (*obs.Tracer)(nil).Join("update", 0)
	deltas, err := e.Assign(append([]graph.NodeID{first[0]}, rest...), tr) // first[0] is already owned
	if err != nil {
		t.Fatal(err)
	}
	if n := evaluations(tr); n != 4 {
		t.Fatalf("assignment made %d evaluations, want one per pattern (4)", n)
	}
	for _, d := range deltas {
		if d.Affected != len(rest) {
			t.Fatalf("%s: assignment re-judged %d candidates, want the %d new nodes", d.Name, d.Affected, len(rest))
		}
	}
	if len(e.Owned()) != g.NumNodes() {
		t.Fatalf("owned %d nodes, want all %d", len(e.Owned()), g.NumNodes())
	}
	for i, v := range e.Owned() {
		if v != graph.NodeID(i) {
			t.Fatalf("owned list out of order at %d: %v", i, e.Owned()[:i+1])
		}
	}
	added := 0
	for i, d := range deltas {
		// Owning everything, the engine answers like a whole-graph matcher.
		whole, err := NewMatcher(g, enginePattern(t, i))
		if err != nil {
			t.Fatal(err)
		}
		if got := e.byName[d.Name].m.Answers(); !reflect.DeepEqual(got, whole.Answers()) {
			t.Fatalf("%s: answers after assignment %v, whole graph %v", d.Name, got, whole.Answers())
		}
		// The delta is the assignment's contribution and nothing else:
		// what was answered before plus what was added is the whole.
		got := append(slices.Clone(initial[i]), d.Added...)
		slices.Sort(got)
		if len(d.Removed) != 0 || !slices.Equal(got, whole.Answers()) {
			t.Fatalf("%s: initial %v + added %v - removed %v is not the whole graph's %v", d.Name, initial[i], d.Added, d.Removed, whole.Answers())
		}
		if i >= 4 && !reflect.DeepEqual(d.Delta, deltas[i-4].Delta) {
			t.Fatalf("%s and %s hold one pattern but got deltas %+v and %+v", d.Name, deltas[i-4].Name, d.Delta, deltas[i-4].Delta)
		}
		added += len(d.Added)
	}
	if added == 0 {
		t.Fatal("assignment added no answer under any name")
	}
	if _, err := e.Assign([]graph.NodeID{graph.NodeID(g.NumNodes())}, nil); err == nil {
		t.Fatal("assignment of a node outside the graph accepted")
	}
	free, _ := NewEngine(g, nil, nil)
	if _, err := free.Assign(rest, nil); err == nil {
		t.Fatal("assignment on an unrestricted engine accepted")
	}
}
