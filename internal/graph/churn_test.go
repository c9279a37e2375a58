package graph_test

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkVersionedApply is one Versioned.Apply of the benchmark-shaped
// batch on social persons=4000: what each of the five graph copies of the
// update-watch rig (the coordinator's, and a primary and a replica of each
// of its two fragments) pays per batch. held-B/edge is the heap the graph
// holds after the run, per live edge, re-packs included.
func BenchmarkVersionedApply(b *testing.B) {
	const persons = 4000
	before := heapHeld()
	g := gen.Social(gen.DefaultSocial(persons, 1))
	base := g.NumNodes()
	vg := graph.NewVersioned(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vg.Apply(fixture.WatchBatch(persons, base, i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(heapHeld()-before)/float64(g.NumEdges()), "held-B/edge")
	runtime.KeepAlive(vg)
}

// Rows are edited where they lie for as long as the graph lives, and a
// re-pack keeps the capacity each region has grown to, so the room a full
// row gains when it moves is memory held for good, five graph copies over
// in the update-watch rig. Growing by an eighth keeps it bounded: after
// 10 000 benchmark-shaped batches the regions' room for edges is within a
// quarter of the rows' length plus a few edges per row. (With append's
// doubling it is not: that read +18% peak RSS on the benchmark.) This sums
// the regions alone; the arenas that hold them are
// TestHeldMemoryFollowsLiveEdges'.
func TestRowSlackStaysBounded(t *testing.T) {
	const persons = 2000
	g := gen.Social(gen.DefaultSocial(persons, 1))
	base := g.NumNodes()
	vg := graph.NewVersioned(g)
	for i := 0; i < 10000; i++ {
		if _, err := vg.Apply(fixture.WatchBatch(persons, base, i)); err != nil {
			t.Fatal(err)
		}
	}
	var length, capacity, rows int
	for v := 0; v < g.NumNodes(); v++ {
		length += len(g.Out(graph.NodeID(v))) + len(g.In(graph.NodeID(v)))
		for _, in := range []bool{false, true} {
			capacity += graph.RowCap(g, in, graph.NodeID(v))
			rows++
		}
	}
	const perRow = 3
	if limit := length + length/4 + perRow*rows; capacity > limit {
		t.Fatalf("%d rows hold %d edges in capacity %d, limit %d", rows, length, capacity, limit)
	}
	t.Logf("%d rows, %d edges, capacity %d (%.1f%% slack)", rows, length, capacity, 100*float64(capacity-length)/float64(length))
	if err := g.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}

// heapHeld is the heap's live bytes after a collection.
func heapHeld() int {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}

// TestHeldMemoryFollowsLiveEdges: what a maintained graph holds after a
// long run of benchmark-shaped batches is sized by its live edges, not by
// the batches it has seen. A region that outgrows its place moves to its
// arena's tail and leaves dead slots behind; so without re-packing the
// arenas would hold the build's regions whole plus a moved copy of every
// person row. Per direction the arena may hold the rows' regions (the live
// edges, their runs and headers, and each region's slack), the dead slots
// a re-pack is due at (a quarter of the live edges) and a 32nd of spare
// room past what the fresh graph's arenas took, and the node-indexed
// slices may have grown to twice the final node count.
func TestHeldMemoryFollowsLiveEdges(t *testing.T) {
	const persons, batches = 2000, 40000
	// Per node: its two region offsets, its label and byLabel entry, and
	// Versioned's mark.
	const perNode = 2*4 + 4 + 4 + 1
	before := heapHeld()
	g := gen.Social(gen.DefaultSocial(persons, 1))
	base := g.NumNodes()
	_, built := graph.Slots(g)
	vg := graph.NewVersioned(g)
	fresh := heapHeld() - before
	for i := 0; i < batches; i++ {
		if _, err := vg.Apply(fixture.WatchBatch(persons, base, i)); err != nil {
			t.Fatal(err)
		}
	}
	held := heapHeld() - before
	regions, arenas := graph.Slots(g)
	allowed := regions + 2*(g.NumEdges()/4)
	allowed += allowed / 32
	edge := int(unsafe.Sizeof(graph.Edge{}))
	limit := fresh + edge*(allowed-built) + perNode*(2*g.NumNodes()-base)
	t.Logf("%d nodes, %d edges in regions of %d slots, arenas of %d: fresh %d B, after %d batches %d B (%.1f B per live edge), limit %d B",
		g.NumNodes(), g.NumEdges(), regions, arenas, fresh, batches, held, float64(held)/float64(g.NumEdges()), limit)
	if held > limit {
		t.Fatalf("after %d batches the graph holds %d B, past the limit of %d B (fresh: %d B)", batches, held, limit, fresh)
	}
	runtime.KeepAlive(vg)
}
