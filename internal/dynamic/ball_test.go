package dynamic

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
)

// Ball collects its result from the breadth-first queue; AffectedWithin
// marks a |V|-sized table and scans it. Over one graph they must name the
// same set: random graphs, sources past the node count among them, hops 0
// to 3, one scratch carried through all of it.
func TestBallMatchesAffectedWithin(t *testing.T) {
	var scratch BallScratch
	for seed := int64(1); seed <= 500; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode("node")
		}
		for i := r.Intn(3 * n); i > 0; i-- {
			g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), string(rune('a'+r.Intn(3))))
		}
		g.Finalize()
		sources := make([]graph.NodeID, r.Intn(6))
		for i := range sources {
			sources[i] = graph.NodeID(r.Intn(n + 3)) // up to two ids past the graph, and repeats
		}
		for hops := 0; hops <= 3; hops++ {
			got, want := scratch.Ball(g, sources, hops), AffectedWithin(g, g, sources, hops)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, %d hops from %v: Ball = %v, AffectedWithin = %v", seed, hops, sources, got, want)
			}
		}
	}
}

// The scratch outlives the graph it was last used on — a batch can have
// added nodes since — and a call hands it back clean: no mark of an
// earlier call may read as reached in a later one.
func TestBallScratchSurvivesGrowth(t *testing.T) {
	path := func(n int) *graph.Graph {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode("node")
			if i > 0 {
				g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), "next")
			}
		}
		g.Finalize()
		return g
	}
	var scratch BallScratch
	small, large := path(5), path(9000)
	if got, want := scratch.Ball(small, []graph.NodeID{4}, 1), []graph.NodeID{3, 4}; !slices.Equal(got, want) {
		t.Fatalf("on the small graph: %v, want %v", got, want)
	}
	if got, want := scratch.Ball(large, []graph.NodeID{4, 8191}, 2), []graph.NodeID{2, 3, 4, 5, 6, 8189, 8190, 8191, 8192, 8193}; !slices.Equal(got, want) {
		t.Fatalf("after the graph grew: %v, want %v", got, want)
	}
	for _, table := range [][]uint64{scratch.seen, scratch.live} {
		if slices.ContainsFunc(table, func(w uint64) bool { return w != 0 }) {
			t.Fatal("a call left marks in the scratch")
		}
	}
	if got, want := scratch.Ball(large, []graph.NodeID{8999}, 1), []graph.NodeID{8998, 8999}; !slices.Equal(got, want) {
		t.Fatalf("at the last node: %v, want %v", got, want)
	}
}

// A call's allocations are the ball's, not the graph's: the same sources
// and hops on a ring of 2 000 and of 200 000 nodes allocate the same, give
// or take what the runtime allocates on its own meanwhile — nowhere near
// the 25 000 bytes of even one bit per node.
func TestBallAllocatesByTheBallNotTheGraph(t *testing.T) {
	perCall := func(n int) int64 {
		g := graph.New(n)
		for i := 0; i < n; i++ {
			g.AddNode("node")
		}
		for i := 0; i < n; i++ {
			g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), "next")
			g.AddEdge(graph.NodeID(i), graph.NodeID((i+7)%n), "skip")
		}
		g.Finalize()
		var scratch BallScratch
		sources := []graph.NodeID{5, 900, 901, 1500}
		scratch.Ball(g, sources, 2) // sizes the scratch
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			scratch.Ball(g, sources, 2)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / calls
	}
	small, large := perCall(2000), perCall(200000)
	if small == 0 || large > 2*small {
		t.Fatalf("a call allocates %d bytes on 2 000 nodes and %d on 200 000", small, large)
	}
}
