package match

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
)

// spread picks k ids of vs at even strides.
func spread(vs []graph.NodeID, k int) []graph.NodeID {
	out := make([]graph.NodeID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, vs[i*len(vs)/k])
	}
	return out
}

// TestPreparedSharedAcrossGoroutines: a Prepared is immutable, so eight
// goroutines running it at once over one graph — unrestricted, on the
// focus-scoped fast path and with a large restriction — each get the
// answers and metrics of a fresh QMatch. Run with -race.
func TestPreparedSharedAcrossGoroutines(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(300, 3))
	persons := g.NodesByLabelName("person")
	scopes := [][]graph.NodeID{nil, spread(persons, 8), persons[:len(persons)/2]}
	for i := range fixture.Mix {
		q := mixPattern(t, i)
		prep, err := Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*Result, len(scopes))
		for s, scope := range scopes {
			if want[s], err = QMatch(g, q, &Options{FocusRestrict: scope}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for round := 0; round < 6; round++ {
					s := (w + round) % len(scopes)
					got, err := prep.Run(g, &Options{FocusRestrict: scopes[s]})
					if err != nil {
						t.Errorf("%s: goroutine %d: %v", fixture.Mix[i].Name, w, err)
						return
					}
					if !reflect.DeepEqual(got.Matches, want[s].Matches) || got.Metrics != want[s].Metrics {
						t.Errorf("%s: goroutine %d, scope %d: %d matches %+v, fresh QMatch %d matches %+v",
							fixture.Mix[i].Name, w, s, len(got.Matches), got.Metrics, len(want[s].Matches), want[s].Metrics)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestProfileOnFastPath: with a small restriction the candidate sets are a
// label predicate, and the profile still reports them — the label classes'
// sizes, unfiltered — and says which path ran.
func TestProfileOnFastPath(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(300, 3))
	persons := g.NodesByLabelName("person")
	q := mixPattern(t, 1) // path2: person, person, product
	res, err := QMatch(g, q, &Options{FocusRestrict: spread(persons, 8), CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	pp := res.Profile.Patterns[0]
	if !pp.FastPath || pp.Restricted != 8 || pp.Empty {
		t.Fatalf("scoped profile: fast_path=%v restricted=%d empty=%v, want true, 8, false", pp.FastPath, pp.Restricted, pp.Empty)
	}
	if len(pp.Nodes) != len(q.Nodes) || len(pp.Order) != len(q.Nodes) {
		t.Fatalf("scoped profile reports %d nodes, %d order entries for a %d-node pattern", len(pp.Nodes), len(pp.Order), len(q.Nodes))
	}
	for u, n := range pp.Nodes {
		class := len(g.NodesByLabelName(q.Nodes[u].Label))
		if n.Candidates != class || n.Accepted != class {
			t.Errorf("node %s: candidates %d, accepted %d, want the label class's %d", n.Name, n.Candidates, n.Accepted, class)
		}
	}
	full, err := QMatch(g, q, &Options{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	if fp := full.Profile.Patterns[0]; fp.FastPath || fp.Restricted != 0 {
		t.Errorf("unrestricted profile: fast_path=%v restricted=%d", fp.FastPath, fp.Restricted)
	}
}

// TestFocusRestrictAnyOrder: FocusRestrict is a set — order and repeats in
// the caller's list change neither the answers nor the work, on the fast
// path (walked as a list) and past it (a bitset).
func TestFocusRestrictAnyOrder(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(300, 3))
	persons := g.NodesByLabelName("person")
	for _, sorted := range [][]graph.NodeID{spread(persons, 8), persons[:len(persons)/2]} {
		shuffled := append([]graph.NodeID(nil), sorted...)
		for i := range shuffled {
			j := (i * 7) % len(shuffled)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		shuffled = append(shuffled, shuffled[0], shuffled[len(shuffled)/2])
		for i := range fixture.Mix {
			q := mixPattern(t, i)
			want, err := QMatch(g, q, &Options{FocusRestrict: sorted})
			if err != nil {
				t.Fatal(err)
			}
			got, err := QMatch(g, q, &Options{FocusRestrict: shuffled})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) || got.Metrics != want.Metrics {
				t.Errorf("%s, %d candidates: shuffled list gives %d matches %+v, sorted %d matches %+v",
					fixture.Mix[i].Name, len(sorted), len(got.Matches), got.Metrics, len(want.Matches), want.Metrics)
			}
		}
	}
}
