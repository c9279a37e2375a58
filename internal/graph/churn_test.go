package graph_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// churnBatch is batch i of the benchmark's update-watch schedule
// (benchmark/workloads.go, batchFor) in the core's vocabulary: 4 follow
// edges inserted between hashed person pairs, the 4 that batch i-4
// inserted removed again, and every 16th batch a person added that is
// tombstoned 8 batches later. base is the node count before batch 0.
func churnBatch(persons, base, i int) []graph.Mutation {
	pair := func(k int) (graph.NodeID, graph.NodeID) {
		x := uint64(k) + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		from, to := x%uint64(persons), (x>>32)%uint64(persons)
		if to == from {
			to = (to + 1) % uint64(persons)
		}
		return graph.NodeID(from), graph.NodeID(to)
	}
	muts := make([]graph.Mutation, 0, 9)
	for j := 0; j < 4; j++ {
		from, to := pair(4*i + j)
		muts = append(muts, graph.Mutation{Op: graph.MutAddEdge, From: from, To: to, Label: "follow"})
	}
	for j := 0; j < 4 && i >= 4; j++ {
		from, to := pair(4*(i-4) + j)
		muts = append(muts, graph.Mutation{Op: graph.MutRemoveEdge, From: from, To: to, Label: "follow"})
	}
	switch i % 16 {
	case 0:
		muts = append(muts, graph.Mutation{Op: graph.MutAddNode, Label: "person"})
	case 8:
		muts = append(muts, graph.Mutation{Op: graph.MutRemoveNode, From: graph.NodeID(base + i/16)})
	}
	return muts
}

// BenchmarkVersionedApply is one Versioned.Apply of the benchmark-shaped
// batch on social persons=4000: what each of the six graph copies of the
// update-watch rig pays per batch.
func BenchmarkVersionedApply(b *testing.B) {
	const persons = 4000
	g := gen.Social(gen.DefaultSocial(persons, 1))
	base := g.NumNodes()
	vg := graph.NewVersioned(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vg.Apply(churnBatch(persons, base, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Rows are edited where they lie for as long as the graph lives, so the
// room a full row gains when it moves is memory held for good, six graph
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
		if _, _, err := vg.Apply(churnBatch(persons, base, i)); err != nil {
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
