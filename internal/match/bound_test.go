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

// engines are the three engines with the one-shot function each equals.
var engines = []struct {
	name  string
	e     Engine
	fresh func(*graph.Graph, *core.Pattern, *Options) (*Result, error)
}{
	{"qmatch", EngineQMatch, QMatch},
	{"qmatchn", EngineQMatchN, QMatchN},
	{"enum", EngineEnum, Enum},
}

// boundCase is one pattern with the Bound that follows the graph, which
// every engine reads.
type boundCase struct {
	name   string
	q      *core.Pattern
	bound  *Bound
	builds map[string]map[int]int // per positive: per round, runs that reported building sets
}

// checkSets compares every set the advanced bound holds, and its verdicts,
// with the ones a fresh bind builds.
func (c *boundCase) checkSets(t *testing.T, g *graph.Graph, round int) {
	t.Helper()
	fresh := c.bound.prep.Bind(g)
	for i := range c.bound.pos {
		bp := &c.bound.pos[i]
		if bp.cand == nil {
			if bp.accept != nil {
				t.Fatalf("round %d, %s: %s holds acceptance sets without candidate sets", round, c.name, bp.name)
			}
			continue
		}
		e := EngineEnum
		if bp.accept != nil {
			e = EngineQMatch
		}
		cand, accept, none, _ := fresh.sets(&fresh.pos[i], e)
		if got := bp.vacant || (bp.accept != nil && bp.pruned); got != none {
			t.Fatalf("round %d, %s: %s carries the verdict none=%v, a fresh bind %v", round, c.name, bp.name, got, none)
		}
		for u := range cand {
			if !reflect.DeepEqual(bp.cand[u].Slice(), cand[u].Slice()) {
				t.Fatalf("round %d, %s: %s cand[%d] = %v, fresh %v", round, c.name, bp.name, u, bp.cand[u].Slice(), cand[u].Slice())
			}
			if bp.accept != nil && !reflect.DeepEqual(bp.accept[u].Slice(), accept[u].Slice()) {
				t.Fatalf("round %d, %s: %s accept[%d] = %v, fresh %v", round, c.name, bp.name, u, bp.accept[u].Slice(), accept[u].Slice())
			}
		}
	}
}

func boundCases(t *testing.T, g *graph.Graph) []*boundCase {
	var cases []*boundCase
	add := func(name string, q *core.Pattern) {
		prep, err := Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, &boundCase{name: name, q: q, bound: prep.Bind(g), builds: map[string]map[int]int{}})
	}
	for i, m := range fixture.Mix {
		add(m.Name, mixPattern(t, i))
	}
	for i, dsl := range fixture.ChurnLate {
		q, err := core.Parse(dsl)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("late%d", i), q)
	}
	return cases
}

// TestBoundFollowsVersions: one Bound per pattern, advanced over the
// graph's log after each of 300 churn batches and read by all three
// engines in every round, gives at every version the answers, the Metrics
// and the profile of a fresh QMatch, QMatchN and Enum — unrestricted, for
// an owned half and scoped to eight candidates, with the order the
// advanced class sizes rank. The engine that reads first changes from
// round to round, so candidate sets are built for Enum alone and
// acceptance sets later over them, and an Enum run after the acceptance
// sets were built still reads the candidate sets (its profile's accepted
// counts are a fresh Enum's). After the first build no set is built
// again, a verdict of "no answer" included, but after a batch whose edits
// alone are more than the graph's log holds (EditsSince reports false):
// Advance rebuilds there. A bound that holds no sets reports a hit: every
// one in round 0, before any run, and a late pattern until the batch that
// brings its labels, at which Advance reports the build it needs.
func TestBoundFollowsVersions(t *testing.T) {
	const rounds = 300
	vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(300, 3)))
	g := vg.Graph()
	cases := boundCases(t, g)
	churn := fixture.NewChurn(7)
	origins := map[string]int{}
	var rebuilt []int // the rounds past the log
	for round := 0; round < rounds; round++ {
		before := g.Version()
		if _, err := vg.Apply(churn.Next(g)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		_, logged := g.EditsSince(before)
		if !logged {
			rebuilt = append(rebuilt, round)
		}
		persons := g.NodesByLabelName("person")
		scopes := [][]graph.NodeID{nil, persons[:len(persons)/2], spread(persons, 8)}
		for ci, c := range cases {
			late := ci >= len(fixture.Mix)
			want := Repaired
			switch {
			case round == 0, late && round < fixture.ChurnLabelsAt:
				want = Hit
			case late && round == fixture.ChurnLabelsAt, !logged:
				want = Built
			}
			if round%7 != 3 {
				// Every seventh version is left for Run to notice on its own.
				if o := c.bound.Advance(); o != want {
					t.Fatalf("round %d, %s: Advance gave outcome %d, want %d", round, c.name, o, want)
				}
				c.checkSets(t, g, round)
			}
			for k := range engines {
				en := engines[(len(engines)-1+round+k)%len(engines)] // Enum first in round 0
				for s, scope := range scopes {
					opts := &Options{FocusRestrict: scope, CollectProfile: true}
					want, err := en.fresh(g, c.q, opts)
					if err != nil {
						t.Fatalf("round %d, %s/%s: fresh: %v", round, c.name, en.name, err)
					}
					got, err := c.bound.Run(en.e, opts)
					if err != nil {
						t.Fatalf("round %d, %s/%s: bound: %v", round, c.name, en.name, err)
					}
					if !reflect.DeepEqual(got.Matches, want.Matches) || got.Metrics != want.Metrics {
						t.Fatalf("round %d, %s/%s, scope %d: advanced Bound gives %d matches %+v, fresh %d matches %+v",
							round, c.name, en.name, s, len(got.Matches), got.Metrics, len(want.Matches), want.Metrics)
					}
					for i, pp := range got.Profile.Patterns {
						wp := want.Profile.Patterns[i]
						if !reflect.DeepEqual(pp.Nodes, wp.Nodes) || !reflect.DeepEqual(pp.Order, wp.Order) || pp.Empty != wp.Empty || pp.Restricted != wp.Restricted {
							t.Fatalf("round %d, %s/%s, scope %d: profile of %s differs: %+v, fresh %+v", round, c.name, en.name, s, pp.Pattern, pp, wp)
						}
						if (pp.Bound == "") != (wp.Bound == "") {
							t.Fatalf("round %d, %s/%s, scope %d: %s reports bound=%q, fresh %q", round, c.name, en.name, s, pp.Pattern, pp.Bound, wp.Bound)
						}
						origins[pp.Bound]++
						if pp.Bound == "built" && round%7 != 3 && logged {
							if c.builds[pp.Pattern] == nil {
								c.builds[pp.Pattern] = map[int]int{}
							}
							c.builds[pp.Pattern][round]++
						}
					}
				}
			}
		}
		if round == fixture.ChurnLabelsAt {
			for _, c := range cases[len(fixture.Mix):] {
				if res, _ := c.bound.Run(EngineQMatch, nil); len(res.Matches) == 0 {
					t.Fatalf("%s: no match right after the batch that brought its label", c.name)
				}
			}
		}
	}
	t.Logf("set origins over all runs: %v; rounds past the log: %v", origins, rebuilt)
	if origins["repaired"] == 0 || origins["hit"] == 0 || origins["built"] == 0 {
		t.Fatalf("coverage: set origins %v", origins)
	}
	for _, c := range cases {
		// Sets are built in one round — candidate sets by the first engine,
		// acceptance sets by the first that prunes by quantifiers — and
		// repaired from then on, through verdicts of "no answer" too (ratio
		// loses its candidates while the albums are drained), but where the
		// log could not carry them.
		for pattern, byRound := range c.builds {
			for round, n := range byRound {
				if len(byRound) > 1 || n > 2 {
					t.Errorf("%s: %s built sets %d times in round %d, and in %d rounds on advanced versions", c.name, pattern, n, round, len(byRound))
				}
			}
		}
	}
}

// TestBoundBuildsAcceptanceLazily: a Bound read only by Enum builds and
// repairs candidate sets — or rebuilds them, after a batch that touched
// more than the graph's log holds — and no acceptance sets; the first
// QMatch run builds them over the candidate sets and equals a fresh
// QMatch, and Enum runs after it still equal a fresh Enum.
func TestBoundBuildsAcceptanceLazily(t *testing.T) {
	vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(300, 3)))
	g := vg.Graph()
	churn := fixture.NewChurn(5)
	for i := range fixture.Mix {
		q := mixPattern(t, i)
		prep, err := Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		c := &boundCase{name: fixture.Mix[i].Name, q: q, bound: prep.Bind(g)}
		check := func(what string, en int, origin string) {
			t.Helper()
			got, err := c.bound.Run(engines[en].e, &Options{CollectProfile: true})
			if err != nil {
				t.Fatal(err)
			}
			want, err := engines[en].fresh(g, q, &Options{CollectProfile: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) || got.Metrics != want.Metrics || !reflect.DeepEqual(got.Profile.Patterns[0].Nodes, want.Profile.Patterns[0].Nodes) {
				t.Fatalf("%s, %s: %s gives %d matches %+v, fresh %d matches %+v", c.name, what, engines[en].name, len(got.Matches), got.Metrics, len(want.Matches), want.Metrics)
			}
			if o := got.Profile.Patterns[0].Bound; o != origin {
				t.Fatalf("%s, %s: sets were %q, want %q", c.name, what, o, origin)
			}
		}
		check("first run", 2, "built")
		for round := 0; round < 3; round++ {
			before := g.Version()
			if _, err := vg.Apply(churn.Next(g)); err != nil {
				t.Fatal(err)
			}
			c.bound.Advance()
			origin := "repaired"
			if _, logged := g.EditsSince(before); !logged {
				origin = "built"
			}
			check(fmt.Sprintf("round %d", round), 2, origin)
			for k := range c.bound.pos {
				if c.bound.pos[k].accept != nil {
					t.Fatalf("%s: Enum runs built acceptance sets", c.name)
				}
			}
		}
		check("first QMatch", 0, "built")
		check("Enum after QMatch", 2, "hit")
		check("QMatchN after QMatch", 1, "hit")
		c.checkSets(t, g, 3)
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
	if _, err := b.Run(EngineQMatch, nil); err != nil {
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
		if _, err := vg.Apply(muts); err != nil {
			t.Fatal(err)
		}
		if o := b.Advance(); o != Repaired {
			t.Fatalf("step %d: Advance gave outcome %d, want repaired", i, o)
		}
		if b.version != g.Version() {
			t.Fatalf("step %d: bound at version %d, graph at %d", i, b.version, g.Version())
		}
		got, err := b.Run(EngineQMatch, &Options{CollectProfile: true})
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
// catches up on its next Run, over the graph's log, and says so; where the
// log cannot carry it — a rollback took away a node its sets had grown
// over — it rebuilds.
func TestStaleBoundRebuilds(t *testing.T) {
	vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(300, 3)))
	g := vg.Graph()
	q := mixPattern(t, 0)
	prep, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b := prep.Bind(g)
	if _, err := b.Run(EngineQMatch, nil); err != nil {
		t.Fatal(err)
	}
	persons := g.NodesByLabelName("person")
	born := graph.NodeID(g.NumNodes())
	old, err := vg.Apply([]graph.Mutation{
		{Op: graph.MutAddNode, Label: "person"},
		{Op: graph.MutAddEdge, From: persons[0], To: born, Label: "follow"},
		{Op: graph.MutAddEdge, From: born, To: persons[1], Label: "follow"},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what, origin string) {
		t.Helper()
		got, err := b.Run(EngineQMatch, &Options{CollectProfile: true})
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
	check("after an unannounced batch", "repaired")
	check("again", "hit")
	// A rollback takes the born node away again: sets grown over it cannot
	// be repaired, whatever the log says.
	if err := vg.Rollback(old); err != nil {
		t.Fatal(err)
	}
	check("after a rollback", "built")
}

// TestBoundFollowsTheGraphsLog holds one Bound, and one left behind, across
// every way the graph's log goes on or ends: batches and their rollbacks
// (with and without nodes the rollback takes away), a building call that
// bumps the version unlogged, and batches whose edits together are more
// than |V|/8. At each step the bound's sets equal a fresh bind's, and
// Advance rebuilds exactly where the log cannot carry it.
func TestBoundFollowsTheGraphsLog(t *testing.T) {
	vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(300, 3)))
	g := vg.Graph()
	persons := g.NodesByLabelName("person")
	follow := func(from, to int) graph.Mutation {
		return graph.AddEdge(persons[from%len(persons)], persons[to%len(persons)], "follow")
	}
	unfollow := func(v graph.NodeID) graph.Mutation {
		e := g.Out(v)[0]
		return graph.RemoveEdge(v, e.To, g.LabelName(e.Label))
	}
	cases := boundCases(t, g)[:len(fixture.Mix)] // every one holds sets a node's loss outgrows
	// behind[i] is cases[i]'s pattern bound at the start of a step and left
	// there until its end. Both hold sets at the start: a run builds what
	// the step before dropped.
	behind := make([]*Bound, len(cases))
	hold := func() {
		for i, c := range cases {
			if _, err := c.bound.Run(EngineQMatch, nil); err != nil {
				t.Fatal(err)
			}
			behind[i] = c.bound.prep.Bind(g)
			if _, err := behind[i].Run(EngineQMatch, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	advance := func(step string, b *Bound, want Outcome, c *boundCase) {
		t.Helper()
		if o := b.Advance(); o != want {
			t.Fatalf("%s, %s: Advance gave outcome %d, want %d", step, c.name, o, want)
		}
		(&boundCase{name: c.name, bound: b}).checkSets(t, g, 0)
	}
	apply := func(muts ...graph.Mutation) *graph.OldView {
		t.Helper()
		old, err := vg.Apply(muts)
		if err != nil {
			t.Fatal(err)
		}
		return old
	}
	rollback := func(old *graph.OldView) {
		t.Helper()
		if err := vg.Rollback(old); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name          string
		run           func()
		bound, behind Outcome
	}{
		{"apply, rollback, apply", func() {
			old := apply(follow(0, 1), follow(2, 3), unfollow(persons[4]))
			for _, c := range cases {
				if o := c.bound.Advance(); o != Repaired {
					t.Fatalf("%s: Advance gave outcome %d, want repaired", c.name, o)
				}
			}
			rollback(old)
			apply(follow(5, 6), unfollow(persons[7]))
		}, Repaired, Repaired},
		{"a rollback takes away nodes born", func() {
			// 64 of them: the edits name one past the words of every set.
			var muts []graph.Mutation
			for range 64 {
				muts = append(muts, graph.AddNode("person"))
			}
			born := graph.NodeID(g.NumNodes() + 63)
			old := apply(append(muts, graph.AddEdge(born, persons[8], "follow"),
				graph.AddEdge(born, persons[9], "follow"), graph.AddEdge(born, persons[10], "follow"), follow(11, 12))...)
			for _, c := range cases {
				c.bound.Advance()
			}
			rollback(old)
			apply(follow(13, 14))
		}, Built, Repaired},
		{"a building call between applies", func() {
			apply(follow(15, 16))
			for _, c := range cases {
				c.bound.Advance()
			}
			g.AddEdge(persons[17], persons[18], "follow")
			g.Finalize()
			apply(follow(19, 20), unfollow(persons[21]))
		}, Built, Built},
		{"batches past |V|/8 edits together", func() {
			for i, edits := 0, 0; edits <= g.NumNodes()/8; i++ {
				edits += len(apply(follow(30+4*i, 31+4*i), follow(32+4*i, 33+4*i)).Edits())
				for _, c := range cases {
					if o := c.bound.Advance(); o != Repaired {
						t.Fatalf("batch %d, %s: Advance gave outcome %d, want repaired", i, c.name, o)
					}
				}
			}
		}, Hit, Built},
	}
	for _, step := range steps {
		hold()
		step.run()
		for i, c := range cases {
			advance(step.name, c.bound, step.bound, c)
			advance(step.name+", left behind", behind[i], step.behind, c)
		}
	}
}

// TestBoundSharedAcrossGoroutines: between advances a Bound is read-only
// apart from the lazy builds its mutex orders, so eight goroutines may run
// it at once with different engines — the first runs after a bind, after
// a repair and after an unannounced batch included, where one goroutine's
// Enum run may build the candidate sets while another's QMatch run builds
// the acceptance sets over them. Run with -race.
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
				if _, err := vg.Apply(churn.Next(g)); err != nil {
					t.Fatal(err)
				}
				if round != 2 {
					b.Advance()
				}
			}
			persons := g.NodesByLabelName("person")
			scopes := [][]graph.NodeID{nil, spread(persons, 8), persons[:len(persons)/2]}
			want := make([][]*Result, len(engines))
			for en := range engines {
				want[en] = make([]*Result, len(scopes))
				for s, scope := range scopes {
					if want[en][s], err = engines[en].fresh(g, q, &Options{FocusRestrict: scope}); err != nil {
						t.Fatal(err)
					}
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := 0; k < 3; k++ {
						s, en := (w+k)%len(scopes), (w+round)%len(engines)
						got, err := b.Run(engines[en].e, &Options{FocusRestrict: scopes[s]})
						if err != nil {
							t.Errorf("%s: goroutine %d: %v", fixture.Mix[i].Name, w, err)
							return
						}
						if wt := want[en][s]; !reflect.DeepEqual(got.Matches, wt.Matches) || got.Metrics != wt.Metrics {
							t.Errorf("%s, round %d: goroutine %d, %s, scope %d: %d matches %+v, fresh %d matches %+v",
								fixture.Mix[i].Name, round, w, engines[en].name, s, len(got.Matches), got.Metrics, len(wt.Matches), wt.Metrics)
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
// tombstoned now and then) applied by Versioned.Apply, untimed, and the
// bounds of the six mix patterns caught up over the graph's log by
// Advance, against binding and building them afresh. Per op: all six
// patterns.
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
		next := func() {
			if _, err := vg.Apply(fixture.WatchBatch(persons, base, batches)); err != nil {
				b.Fatal(err)
			}
			batches++
		}
		full := &Options{FocusRestrict: people[:len(people)/2]}
		b.Run(fmt.Sprintf("V=%d/repair", g.NumNodes()), func(b *testing.B) {
			bounds := make([]*Bound, len(preps))
			for i, p := range preps {
				bounds[i] = p.Bind(g)
				if _, err := bounds[i].Run(EngineQMatch, full); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				next()
				b.StartTimer()
				for _, bd := range bounds {
					if bd.Advance() != Repaired {
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
						bd.sets(&bd.pos[i], EngineQMatch)
					}
				}
			}
		})
	}
}
