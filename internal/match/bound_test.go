package match

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
)

// boundCase is one pattern under one engine, with the Bound that follows
// the graph.
type boundCase struct {
	name   string
	q      *core.Pattern
	fresh  func(*graph.Graph, *core.Pattern, *Options) (*Result, error)
	bound  *Bound
	builds int // runs that reported building sets
}

// checkSets compares every set the advanced bound holds with the one a
// fresh bind builds.
func (c *boundCase) checkSets(t *testing.T, g *graph.Graph, round int) {
	t.Helper()
	fresh := c.bound.prep.Bind(g)
	for i := range c.bound.pos {
		bp := &c.bound.pos[i]
		if bp.state != setsBuilt {
			continue
		}
		cand, accept, _ := fresh.sets(&fresh.pos[i])
		if cand == nil {
			t.Fatalf("round %d, %s: %s holds sets, a fresh bind finds no answer", round, c.name, bp.name)
		}
		for u := range cand {
			if !reflect.DeepEqual(bp.cand[u].Slice(), cand[u].Slice()) {
				t.Fatalf("round %d, %s: %s cand[%d] = %v, fresh %v", round, c.name, bp.name, u, bp.cand[u].Slice(), cand[u].Slice())
			}
			if !reflect.DeepEqual(bp.accept[u].Slice(), accept[u].Slice()) {
				t.Fatalf("round %d, %s: %s accept[%d] = %v, fresh %v", round, c.name, bp.name, u, bp.accept[u].Slice(), accept[u].Slice())
			}
		}
	}
}

func boundCases(t *testing.T, g *graph.Graph) []*boundCase {
	var cases []*boundCase
	add := func(name, engine string, q *core.Pattern, fresh func(*graph.Graph, *core.Pattern, *Options) (*Result, error)) {
		prep, err := PrepareEngine(engine, q)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, &boundCase{name: name + "/" + engine, q: q, fresh: fresh, bound: prep.Bind(g)})
	}
	for i, m := range fixture.Mix {
		add(m.Name, "qmatch", mixPattern(t, i), QMatch)
	}
	for i, dsl := range fixture.ChurnLate {
		q, err := core.Parse(dsl)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("late%d", i), "qmatch", q, QMatch)
	}
	add("negation", "qmatchn", mixPattern(t, 3), QMatchN)
	add("path2", "enum", mixPattern(t, 1), Enum)
	return cases
}

// TestBoundFollowsVersions: one Bound per pattern, advanced by each
// batch's touched set through 300 churn batches, gives at every version
// the answers and the Metrics of a fresh evaluation — unrestricted, for an
// owned half and scoped to eight candidates, with the order the advanced
// class sizes rank — and after the first build it never builds sets again
// except where a verdict was "no answer".
func TestBoundFollowsVersions(t *testing.T) {
	const rounds = 300
	vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(300, 3)))
	g := vg.Graph()
	cases := boundCases(t, g)
	churn := fixture.NewChurn(7)
	origins := map[string]int{}
	for round := 0; round < rounds; round++ {
		_, touched, err := vg.Apply(churn.Next(g))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		persons := g.NodesByLabelName("person")
		scopes := [][]graph.NodeID{nil, persons[:len(persons)/2], spread(persons, 8)}
		for _, c := range cases {
			if round%7 != 3 {
				// Every seventh version is left for Run to notice on its own.
				c.bound.Advance(touched)
				c.checkSets(t, g, round)
			}
			for s, scope := range scopes {
				opts := &Options{FocusRestrict: scope, CollectProfile: true}
				want, err := c.fresh(g, c.q, opts)
				if err != nil {
					t.Fatalf("round %d, %s: fresh: %v", round, c.name, err)
				}
				got, err := c.bound.Run(opts)
				if err != nil {
					t.Fatalf("round %d, %s: bound: %v", round, c.name, err)
				}
				if !reflect.DeepEqual(got.Matches, want.Matches) || got.Metrics != want.Metrics {
					t.Fatalf("round %d, %s, scope %d: advanced Bound gives %d matches %+v, fresh %d matches %+v",
						round, c.name, s, len(got.Matches), got.Metrics, len(want.Matches), want.Metrics)
				}
				for i, pp := range got.Profile.Patterns {
					wp := want.Profile.Patterns[i]
					if !reflect.DeepEqual(pp.Nodes, wp.Nodes) || !reflect.DeepEqual(pp.Order, wp.Order) || pp.Empty != wp.Empty || pp.FastPath != wp.FastPath {
						t.Fatalf("round %d, %s, scope %d: profile of %s differs: %+v, fresh %+v", round, c.name, s, pp.Pattern, pp, wp)
					}
					if (pp.Bound == "") != (wp.Bound == "") || pp.FastPath && pp.Bound != "" {
						t.Fatalf("round %d, %s, scope %d: %s reports bound=%q (fresh %q) on fast_path=%v", round, c.name, s, pp.Pattern, pp.Bound, wp.Bound, pp.FastPath)
					}
					origins[pp.Bound]++
					if pp.Bound == "built" && round%7 != 3 {
						c.builds++
					}
				}
			}
		}
		if round == fixture.ChurnLabelsAt {
			for _, c := range cases[len(fixture.Mix) : len(fixture.Mix)+len(fixture.ChurnLate)] {
				if res, _ := c.bound.Run(nil); len(res.Matches) == 0 {
					t.Fatalf("%s: no match right after the batch that brought its label", c.name)
				}
			}
		}
	}
	t.Logf("set origins over all runs: %v", origins)
	if origins["repaired"] == 0 || origins["hit"] == 0 || origins["built"] == 0 {
		t.Fatalf("coverage: set origins %v", origins)
	}
	for _, c := range cases[:2] {
		// numeric and path2 keep candidates throughout (ratio loses them
		// while the albums are drained): their sets are built once and
		// repaired from then on.
		if c.builds > 1 {
			t.Errorf("%s built its sets %d times on advanced versions", c.name, c.builds)
		}
	}
}

// TestBoundSurvivesBornAndTombstonedNode: sets that outlive a run must
// grow with the graph — a node born after the bind is past the end of
// every set until Advance grows them — and must lose a node that is
// tombstoned.
func TestBoundSurvivesBornAndTombstonedNode(t *testing.T) {
	vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(300, 3)))
	g := vg.Graph()
	q := mixPattern(t, 0) // numeric: follow >= 3
	prep, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b := prep.Bind(g)
	if _, err := b.Run(nil); err != nil {
		t.Fatal(err)
	}
	persons := g.NodesByLabelName("person")
	born := graph.NodeID(g.NumNodes())
	steps := [][]graph.Mutation{
		{{Op: graph.MutAddNode, Label: "person"}},
		{
			{Op: graph.MutAddEdge, From: born, To: persons[0], Label: "follow"},
			{Op: graph.MutAddEdge, From: born, To: persons[1], Label: "follow"},
			{Op: graph.MutAddEdge, From: born, To: persons[2], Label: "follow"},
			{Op: graph.MutAddEdge, From: persons[3], To: born, Label: "follow"},
		},
		{{Op: graph.MutRemoveNode, From: born}},
	}
	wantBorn := []bool{false, true, false}
	for i, muts := range steps {
		_, touched, err := vg.Apply(muts)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Advance(touched) {
			t.Fatalf("step %d: Advance rebuilt instead of repairing", i)
		}
		if b.Version() != g.Version() {
			t.Fatalf("step %d: bound at version %d, graph at %d", i, b.Version(), g.Version())
		}
		got, err := b.Run(&Options{CollectProfile: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := QMatch(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) || got.Metrics != want.Metrics {
			t.Fatalf("step %d: advanced Bound gives %d matches %+v, fresh QMatch %d matches %+v", i, len(got.Matches), got.Metrics, len(want.Matches), want.Metrics)
		}
		if _, found := slices.BinarySearch(got.Matches, born); found != wantBorn[i] {
			t.Fatalf("step %d: born node among the answers = %v, want %v", i, found, wantBorn[i])
		}
		if o := got.Profile.Patterns[0].Bound; o != "repaired" {
			t.Fatalf("step %d: sets were %q, want repaired", i, o)
		}
	}
}

// TestStaleBoundRebuilds: a Bound whose graph moved without Advance
// rebinds on the next Run — including when the move made the graph larger
// than its sets — and says so.
func TestStaleBoundRebuilds(t *testing.T) {
	vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(300, 3)))
	g := vg.Graph()
	q := mixPattern(t, 0)
	prep, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b := prep.Bind(g)
	if _, err := b.Run(nil); err != nil {
		t.Fatal(err)
	}
	persons := g.NodesByLabelName("person")
	born := graph.NodeID(g.NumNodes())
	old, _, err := vg.Apply([]graph.Mutation{
		{Op: graph.MutAddNode, Label: "person"},
		{Op: graph.MutAddEdge, From: persons[0], To: born, Label: "follow"},
		{Op: graph.MutAddEdge, From: born, To: persons[1], Label: "follow"},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what, origin string) {
		t.Helper()
		got, err := b.Run(&Options{CollectProfile: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := QMatch(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) || got.Metrics != want.Metrics {
			t.Fatalf("%s: stale Bound gives %d matches %+v, fresh QMatch %d matches %+v", what, len(got.Matches), got.Metrics, len(want.Matches), want.Metrics)
		}
		if o := got.Profile.Patterns[0].Bound; o != origin {
			t.Fatalf("%s: sets were %q, want %q", what, o, origin)
		}
	}
	check("after an unannounced batch", "built")
	check("again", "hit")
	// A rollback takes the born node away again: sets grown over it cannot
	// be repaired, whatever Advance is told.
	if err := vg.Rollback(old); err != nil {
		t.Fatal(err)
	}
	if b.Advance([]graph.NodeID{persons[0], persons[1]}) {
		t.Fatal("Advance claims to have repaired sets larger than the graph")
	}
	check("after a rollback", "built")
}

// TestBoundSharedAcrossGoroutines: between advances a Bound is read-only
// apart from the lazy build its mutex orders, so eight goroutines may run
// it at once — the first runs after a bind, after a repair and after an
// unannounced batch included. Run with -race.
func TestBoundSharedAcrossGoroutines(t *testing.T) {
	vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(300, 3)))
	g := vg.Graph()
	churn := fixture.NewChurn(11)
	for i := range fixture.Mix {
		q := mixPattern(t, i)
		prep, err := Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		b := prep.Bind(g)
		for round := 0; round < 4; round++ {
			if round > 0 {
				_, touched, err := vg.Apply(churn.Next(g))
				if err != nil {
					t.Fatal(err)
				}
				if round != 2 {
					b.Advance(touched)
				}
			}
			persons := g.NodesByLabelName("person")
			scopes := [][]graph.NodeID{nil, spread(persons, 8), persons[:len(persons)/2]}
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
					for k := 0; k < 3; k++ {
						s := (w + k) % len(scopes)
						got, err := b.Run(&Options{FocusRestrict: scopes[s]})
						if err != nil {
							t.Errorf("%s: goroutine %d: %v", fixture.Mix[i].Name, w, err)
							return
						}
						if !reflect.DeepEqual(got.Matches, want[s].Matches) || got.Metrics != want[s].Metrics {
							t.Errorf("%s, round %d: goroutine %d, scope %d: %d matches %+v, fresh QMatch %d matches %+v",
								fixture.Mix[i].Name, round, w, s, len(got.Matches), got.Metrics, len(want[s].Matches), want[s].Metrics)
						}
					}
				}(w)
			}
			wg.Wait()
		}
	}
}

// BenchmarkBoundAdvance: one benchmark-shaped batch (fixture.WatchBatch:
// 4 follow inserts, the 4 of four batches ago removed, a person born or
// tombstoned now and then) carried into the bounds of the six mix
// patterns by Advance, against binding and building them afresh. Per op:
// all six patterns.
func BenchmarkBoundAdvance(b *testing.B) {
	for _, persons := range []int{2_000, 32_000} {
		vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(persons, 1)))
		g := vg.Graph()
		people := g.NodesByLabelName("person")
		preps := make([]*Prepared, len(fixture.Mix))
		for i := range preps {
			var err error
			if preps[i], err = Prepare(mixPattern(b, i)); err != nil {
				b.Fatal(err)
			}
		}
		base, batches := g.NumNodes(), 0
		next := func() []graph.NodeID {
			_, touched, err := vg.Apply(fixture.WatchBatch(persons, base, batches))
			batches++
			if err != nil {
				b.Fatal(err)
			}
			return touched
		}
		full := &Options{FocusRestrict: people[:len(people)/2]}
		b.Run(fmt.Sprintf("V=%d/repair", g.NumNodes()), func(b *testing.B) {
			bounds := make([]*Bound, len(preps))
			for i, p := range preps {
				bounds[i] = p.Bind(g)
				if _, err := bounds[i].Run(full); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				touched := next()
				b.StartTimer()
				for _, bd := range bounds {
					if !bd.Advance(touched) {
						b.Fatal("Advance rebuilt")
					}
				}
			}
		})
		b.Run(fmt.Sprintf("V=%d/fresh", g.NumNodes()), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				next()
				b.StartTimer()
				for _, p := range preps {
					bd := p.Bind(g)
					for i := range bd.pos {
						bd.sets(&bd.pos[i])
					}
				}
			}
		})
	}
}
