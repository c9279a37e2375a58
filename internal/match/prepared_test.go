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
// goroutines binding and running it at once over one graph — unrestricted, with eight
// candidates and with half the persons — each get the answers and metrics
// of a fresh QMatch. Run with -race.
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
					got, err := prep.Bind(g).Run(EngineQMatch, &Options{FocusRestrict: scopes[s]})
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

// TestProfileScoped: a run restricted to eight candidates reads the same
// candidate and acceptance sets as an unrestricted one — it builds them on
// a fresh Bound and hits them on the next run — and its profile says how
// many candidates it was restricted to.
func TestProfileScoped(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(300, 3))
	persons := g.NodesByLabelName("person")
	q := mixPattern(t, 1) // path2: person, person, product
	prep, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	full, err := QMatch(g, q, &Options{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	fp := full.Profile.Patterns[0]
	if fp.Restricted != 0 || fp.Bound != "built" {
		t.Fatalf("unrestricted profile: restricted=%d bound=%q, want 0, built", fp.Restricted, fp.Bound)
	}
	b := prep.Bind(g)
	for _, origin := range []string{"built", "hit"} {
		res, err := b.Run(EngineQMatch, &Options{FocusRestrict: spread(persons, 8), CollectProfile: true})
		if err != nil {
			t.Fatal(err)
		}
		pp := res.Profile.Patterns[0]
		if pp.Restricted != 8 || pp.Bound != origin || pp.Empty {
			t.Fatalf("scoped profile: restricted=%d bound=%q empty=%v, want 8, %s, false", pp.Restricted, pp.Bound, pp.Empty, origin)
		}
		if !reflect.DeepEqual(pp.Nodes, fp.Nodes) || !reflect.DeepEqual(pp.Order, fp.Order) {
			t.Errorf("scoped run %s: nodes %+v, order %v; unrestricted %+v, %v", origin, pp.Nodes, pp.Order, fp.Nodes, fp.Order)
		}
	}
}

// TestFocusRestrictAnyOrder: FocusRestrict is a set — order and repeats in
// the caller's list change neither the answers nor the work, for a short
// list and for half the persons.
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
