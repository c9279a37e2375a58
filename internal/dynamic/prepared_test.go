package dynamic

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
)

func parsePattern(t testing.TB, dsl string) *core.Pattern {
	t.Helper()
	q, err := core.Parse(dsl)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestPreparedFollowsVersions: one match.Prepared per pattern, prepared
// before the first batch, is bound and run at every version of a
// graph.Versioned that random batches edit in place (inserts, deletes,
// node creation, tombstones) and equals a fresh QMatch there — answers and metrics,
// unrestricted and scoped to eight candidates. Two patterns name a label
// the graph only learns mid-stream, an edge label and a node label: empty
// before, and matched by the batch that brings the label, because labels
// are resolved per bind and never kept in the Prepared.
func TestPreparedFollowsVersions(t *testing.T) {
	const batches, lateAt = 230, 100
	patterns := make([]*core.Pattern, 0, len(fixture.Mix)+2)
	for _, m := range fixture.Mix {
		patterns = append(patterns, parsePattern(t, m.DSL))
	}
	late := len(patterns)
	patterns = append(patterns,
		parsePattern(t, "qgp\nn xo person *\nn z person\ne xo z endorse >=1\n"),
		parsePattern(t, "qgp\nn xo person *\nn z gadget\ne xo z follow >=1\n"))

	vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(120, 11)))
	preps := make([]*match.Prepared, len(patterns))
	for i, q := range patterns {
		var err error
		if preps[i], err = match.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}

	r := rand.New(rand.NewSource(17))
	applied := 0
	for round := 0; round < batches; round++ {
		ups := randomBatch(r, vg.Graph(), false)
		if round == lateAt {
			n := graph.NodeID(vg.Graph().NumNodes())
			ups = []graph.Mutation{graph.AddNode("gadget"), graph.AddEdge(0, n, "follow"), graph.AddEdge(1, 2, "endorse")}
		}
		if _, err := vg.Apply(ups); err != nil {
			t.Fatalf("round %d: %v (batch %+v)", round, err, ups)
		}
		applied++
		g := vg.Graph()
		scope := make([]graph.NodeID, 8)
		for i := range scope {
			scope[i] = graph.NodeID(r.Intn(g.NumNodes()))
		}
		slices.Sort(scope)
		for i, q := range patterns {
			for _, opts := range []*match.Options{nil, {FocusRestrict: scope}} {
				want, err := match.QMatch(g, q, opts)
				if err != nil {
					t.Fatalf("round %d, pattern %d: QMatch: %v", round, i, err)
				}
				got, err := preps[i].Bind(g).Run(match.EngineQMatch, opts)
				if err != nil {
					t.Fatalf("round %d, pattern %d: Run: %v", round, i, err)
				}
				if !reflect.DeepEqual(got.Matches, want.Matches) || got.Metrics != want.Metrics {
					t.Fatalf("round %d, pattern %d, scoped=%v: reused Prepared gives %v %+v, fresh QMatch %v %+v",
						round, i, opts != nil, got.Matches, got.Metrics, want.Matches, want.Metrics)
				}
				if i >= late && opts == nil {
					switch {
					case round < lateAt && len(got.Matches) != 0:
						t.Fatalf("round %d, pattern %d: %v before its label exists", round, i, got.Matches)
					case round == lateAt && len(got.Matches) == 0:
						t.Fatalf("round %d, pattern %d: no match right after the batch that brought its label", round, i)
					}
				}
			}
		}
	}
	if applied < 200 {
		t.Fatalf("only %d batches applied", applied)
	}
}

// scopedGraph is a graph of n persons on a follow ring in which eight
// spread-out candidates each follow the next five nodes as well. Whatever
// n is, the candidates' neighborhoods are the same, so a re-verification
// scoped to them does the same work: what it allocates may not depend on n.
func scopedGraph(n int) (*graph.Graph, []graph.NodeID) {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("person")
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), "follow")
	}
	affected := make([]graph.NodeID, 8)
	for i := range affected {
		c := graph.NodeID(10 + 20*i)
		affected[i] = c
		for k := graph.NodeID(2); k <= 5; k++ {
			g.AddEdge(c, c+k, "follow")
		}
	}
	g.Finalize()
	return g, affected
}

// scopedSizes are the two graph sizes a scoped re-verification is measured
// at: |V| ≈ 2 000 and |V| ≈ 32 000.
var scopedSizes = []int{2_000, 32_000}

// scopedWatches are radius-1 standing patterns: a counting one, and a
// negated one whose Π(Q+e) runs under an IncQMatch restriction.
var scopedWatches = []struct{ name, dsl string }{
	{"follow>=3", "qgp\nn xo person *\nn z person\ne xo z follow >=3\n"},
	{"follow=0", "qgp\nn xo person *\nn z person\ne xo z follow =0\n"},
}

// searching returns a matcher of q over g that re-verifies by a search,
// as a pattern outside the countable class does: its Bound is built by a
// first search, as NewMatcher's would be.
func searching(t testing.TB, g *graph.Graph, q *core.Pattern) *Matcher {
	t.Helper()
	m, err := NewMatcher(g, q)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := match.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	m.counts, m.bound = nil, prep.Bind(g)
	if _, err := m.bound.Run(match.EngineQMatch, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

// perRun returns what one call of f allocates, in objects and bytes. The
// byte count is process-wide, so another goroutine's allocation can land
// in a window of runs; the least of three windows is f's own.
func perRun(f func()) (float64, uint64) {
	allocs := testing.AllocsPerRun(50, f)
	const runs = 50
	bytes := uint64(math.MaxUint64)
	for window := 0; window < 3; window++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < runs; k++ {
			f()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, bytes
}

// TestScopedReverifyAllocatesNothingSizedByV: re-verifying eight affected
// candidates of a radius-1 watch by a search allocates the same number of
// objects and the same number of bytes on a graph sixteen times the size.
func TestScopedReverifyAllocatesNothingSizedByV(t *testing.T) {
	for _, w := range scopedWatches {
		var allocs [2]float64
		var bytes [2]uint64
		for i, n := range scopedSizes {
			g, affected := scopedGraph(n)
			m := searching(t, g, parsePattern(t, w.dsl))
			allocs[i], bytes[i] = perRun(func() {
				if d, err := m.verify(g, affected); err != nil || d.Affected != len(affected) {
					t.Fatalf("verify: %+v, %v", d, err)
				}
			})
		}
		if allocs[0] != allocs[1] || bytes[0] != bytes[1] {
			t.Errorf("%s: %v allocs, %d B per re-verification at |V|=%d; %v allocs, %d B at |V|=%d",
				w.name, allocs[0], bytes[0], scopedSizes[0], allocs[1], bytes[1], scopedSizes[1])
		}
	}
}

// batchPair returns the batch that gives each of the eight candidates one
// more followee and the batch that takes it back.
func batchPair(affected []graph.NodeID) [2][]graph.Mutation {
	var pair [2][]graph.Mutation
	for _, c := range affected {
		pair[0] = append(pair[0], graph.AddEdge(c, c+7, "follow"))
		pair[1] = append(pair[1], graph.RemoveEdge(c, c+7, "follow"))
	}
	return pair
}

// applyPair takes m through the batch pair over vg, each batch through
// ApplyShared, and fails unless every batch re-judged at least the eight
// candidates. It returns the two deltas.
func applyPair(t testing.TB, vg *graph.Versioned, m *Matcher, pair [2][]graph.Mutation) (ds [2]Delta) {
	for i, ups := range pair {
		old, err := vg.Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		if ds[i], err = m.ApplyShared(old, vg.Graph(), nil); err != nil || ds[i].Affected < len(ups) {
			t.Fatalf("ApplyShared: %+v, %v", ds[i], err)
		}
	}
	return ds
}

// TestCountedBatchAllocatesNothingSizedByV: the batch pair costs a counted
// watch — apply, counts carried over, exactly the eight candidates
// re-judged — the same objects and bytes on a graph sixteen times the
// size.
func TestCountedBatchAllocatesNothingSizedByV(t *testing.T) {
	for _, w := range scopedWatches {
		var allocs [2]float64
		var bytes [2]uint64
		for i, n := range scopedSizes {
			g, affected := scopedGraph(n)
			vg := graph.NewVersioned(g)
			m, err := NewMatcher(g, parsePattern(t, w.dsl))
			if err != nil || m.counts == nil {
				t.Fatalf("%s is not counted (%v)", w.name, err)
			}
			pair := batchPair(affected)
			allocs[i], bytes[i] = perRun(func() {
				for _, d := range applyPair(t, vg, m, pair) {
					if d.Affected != len(affected) {
						t.Fatalf("%s: a batch re-judged %d candidates, want the %d it touched", w.name, d.Affected, len(affected))
					}
				}
			})
		}
		if allocs[0] != allocs[1] || bytes[0] != bytes[1] {
			t.Errorf("%s: %v allocs, %d B per batch pair at |V|=%d; %v allocs, %d B at |V|=%d",
				w.name, allocs[0], bytes[0], scopedSizes[0], allocs[1], bytes[1], scopedSizes[1])
		}
	}
}

// searchedWatches are the scoped watches and one with no answer before
// the batch pair's first batch: every person follows at most five.
var searchedWatches = append(scopedWatches[:len(scopedWatches):len(scopedWatches)],
	struct{ name, dsl string }{"follow>=6", "qgp\nn xo person *\nn z person\ne xo z follow >=6\n"})

// TestSearchedBatchAllocatesNothingSizedByV: the batch pair costs a watch
// that re-verifies by a search — apply, its Bound advanced over the
// touched nodes, the reached candidates searched — the same objects and
// bytes on a graph sixteen times the size, a Bound whose verdict was "no
// answer" included.
func TestSearchedBatchAllocatesNothingSizedByV(t *testing.T) {
	for _, w := range searchedWatches {
		var allocs [2]float64
		var bytes [2]uint64
		for i, n := range scopedSizes {
			g, affected := scopedGraph(n)
			vg := graph.NewVersioned(g)
			m := searching(t, g, parsePattern(t, w.dsl))
			pair := batchPair(affected)
			if ds := applyPair(t, vg, m, pair); w.name == "follow>=6" &&
				(!slices.Equal(ds[0].Added, affected) || !slices.Equal(ds[1].Removed, affected)) {
				t.Fatalf("%s at |V|=%d: the pair gives %+v, want the eight candidates added, then removed", w.name, n, ds)
			}
			allocs[i], bytes[i] = perRun(func() { applyPair(t, vg, m, pair) })
		}
		if allocs[0] != allocs[1] || bytes[0] != bytes[1] {
			t.Errorf("%s: %v allocs, %d B per batch pair at |V|=%d; %v allocs, %d B at |V|=%d",
				w.name, allocs[0], bytes[0], scopedSizes[0], allocs[1], bytes[1], scopedSizes[1])
		}
	}
}

// BenchmarkReverifyScoped is one batch's re-verification of one watch
// group by a search: eight affected candidates of a radius-1 pattern
// through the matcher's prepared pattern. B/op and allocs/op must read the same at
// both graph sizes; ns/op may differ by what colder memory costs, not by
// a factor that follows |V|.
func BenchmarkReverifyScoped(b *testing.B) {
	for _, w := range scopedWatches {
		for _, n := range scopedSizes {
			b.Run(fmt.Sprintf("%s/V=%d", w.name, n), func(b *testing.B) {
				g, affected := scopedGraph(n)
				m := searching(b, g, parsePattern(b, w.dsl))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.verify(g, affected); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSearchedBatch is the batch pair of
// TestSearchedBatchAllocatesNothingSizedByV through a searched watch: per
// op, both batches applied and the watch's Bound advanced and searched.
// B/op and allocs/op must read the same at both graph sizes.
func BenchmarkSearchedBatch(b *testing.B) {
	for _, w := range searchedWatches {
		for _, n := range scopedSizes {
			b.Run(fmt.Sprintf("%s/V=%d", w.name, n), func(b *testing.B) {
				g, affected := scopedGraph(n)
				vg := graph.NewVersioned(g)
				m := searching(b, g, parsePattern(b, w.dsl))
				pair := batchPair(affected)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					applyPair(b, vg, m, pair)
				}
			})
		}
	}
}
