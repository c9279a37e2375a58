package graph_test

import (
	"testing"

	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkVersionedApply is one Versioned.Apply of the benchmark-shaped
// batch on social persons=4000: what each of the five graph copies of the
// update-watch rig (the coordinator's, and a primary and a replica of each
// of its two fragments) pays per batch.
func BenchmarkVersionedApply(b *testing.B) {
	const persons = 4000
	g := gen.Social(gen.DefaultSocial(persons, 1))
	base := g.NumNodes()
	vg := graph.NewVersioned(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vg.Apply(fixture.WatchBatch(persons, base, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Rows are edited where they lie for as long as the graph lives, so the
// room a full row gains when it moves is memory held for good, five graph
// copies over in the update-watch rig. Growing by an eighth keeps it
// bounded: after 10 000 benchmark-shaped batches the rows' capacity is
// within a quarter of their length plus a few edges per row. (With
// append's doubling it is not: that read +18% peak RSS on the benchmark.)
func TestRowSlackStaysBounded(t *testing.T) {
	const persons = 2000
	g := gen.Social(gen.DefaultSocial(persons, 1))
	base := g.NumNodes()
	vg := graph.NewVersioned(g)
	for i := 0; i < 10000; i++ {
		if _, _, err := vg.Apply(fixture.WatchBatch(persons, base, i)); err != nil {
			t.Fatal(err)
		}
	}
	var length, capacity, rows int
	for v := 0; v < g.NumNodes(); v++ {
		for _, row := range [][]graph.Edge{g.Out(graph.NodeID(v)), g.In(graph.NodeID(v))} {
			length += len(row)
			capacity += cap(row)
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
