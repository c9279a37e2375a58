package dynamic

// FuzzVersionedApply decodes arbitrary bytes into an update batch, applies
// it through the versioned in-place core and through the rebuild oracle,
// and demands the two paths agree: same accept/reject decision, and on
// acceptance a canonically identical finalized graph plus the same
// touched set. A rejected batch must leave the versioned graph untouched.
//
// The byte decoder is deliberately total — every input decodes to SOME
// batch (possibly invalid, exercising the rejection path), so the fuzzer
// spends its budget on semantics rather than parse errors.

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
)

// fuzzBase builds a small fixed host graph: a few label classes, a ring
// plus chords, and one pre-isolated node so tombstone re-isolation is
// reachable from the first mutation.
func fuzzBase() *graph.Graph {
	const n = 12
	g := graph.New(n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			g.AddNode("person")
		} else if i%3 == 1 {
			g.AddNode("product")
		} else {
			g.AddNode("album")
		}
	}
	for i := 0; i < n-1; i++ { // node n-1 stays isolated
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%(n-1)), "follow")
		if i%2 == 0 {
			g.AddEdge(graph.NodeID(i), graph.NodeID((i+5)%(n-1)), "like")
		}
	}
	g.Finalize()
	return g
}

var fuzzLabels = []string{"follow", "like", "recom", "person", ""}

// decodeBatch turns raw bytes into an update batch, 3 bytes per op:
// opcode selector, from, to. Endpoint bytes land mostly in range (mod a
// window slightly past the node count) so both valid and out-of-range
// references are generated.
func decodeBatch(data []byte) []Update {
	var ups []Update
	for i := 0; i+2 < len(data) && len(ups) < 12; i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		from := int32(a%20) - 2 // [-2, 17]: in range, out of range, negative
		to := int32(b % 20)
		label := fuzzLabels[int(b)%len(fuzzLabels)]
		switch op % 4 {
		case 0:
			ups = append(ups, store.AddNode(label))
		case 1:
			ups = append(ups, store.AddEdge(from, to, label))
		case 2:
			ups = append(ups, store.RemoveEdge(from, to, label))
		case 3:
			ups = append(ups, store.RemoveNode(from))
		}
	}
	return ups
}

func FuzzVersionedApply(f *testing.F) {
	// Pinned seeds: one op of each kind, a mixed valid batch, a batch with
	// an out-of-range edge, a negative node id, and tombstone re-isolation.
	f.Add([]byte{0, 0, 0})                            // AddNode
	f.Add([]byte{1, 2, 5})                            // AddEdge 0->5
	f.Add([]byte{2, 2, 3})                            // RemoveEdge 0->3
	f.Add([]byte{3, 13, 0})                           // RemoveNode 11 (isolated)
	f.Add([]byte{3, 13, 0, 3, 13, 0})                 // re-isolate the tombstone
	f.Add([]byte{1, 3, 4, 0, 0, 1, 2, 4, 2, 3, 6, 0}) // mixed valid batch
	f.Add([]byte{1, 19, 0})                           // AddEdge from node 17: out of range
	f.Add([]byte{3, 0, 0})                            // RemoveNode -2: negative
	f.Add([]byte{0, 0, 2, 1, 16, 14})                 // AddNode then edge onto the new node

	f.Fuzz(func(t *testing.T, data []byte) {
		ups := decodeBatch(data)
		if len(ups) == 0 {
			t.Skip()
		}
		base := fuzzBase()
		vg := graph.NewVersioned(base.Clone())
		preNodes, preEdges := canon(vg.Graph())

		ng, touchedO, errO := Apply(base, ups)
		old, touchedV, errV := ApplyVersioned(vg, ups)

		if (errO == nil) != (errV == nil) {
			t.Fatalf("error divergence: oracle=%v versioned=%v (batch %+v)", errO, errV, ups)
		}
		if errO != nil {
			gn, ge := canon(vg.Graph())
			if !reflect.DeepEqual(gn, preNodes) || !reflect.DeepEqual(ge, preEdges) {
				t.Fatalf("rejected batch mutated the versioned graph (batch %+v)", ups)
			}
			if err := vg.Graph().CheckIndex(); err != nil {
				t.Fatalf("after a rejected batch: %v (batch %+v)", err, ups)
			}
			return
		}
		if !reflect.DeepEqual(touchedO, touchedV) {
			t.Fatalf("touched sets diverge: oracle %v vs versioned %v (batch %+v)", touchedO, touchedV, ups)
		}
		requireCanonEqual(t, ng, vg.Graph(), "fuzz")
		// The label-run index is replaced with the rows it summarizes.
		if err := vg.Graph().CheckIndex(); err != nil {
			t.Fatalf("after apply: %v (batch %+v)", err, ups)
		}

		// The old view must still render the pre-batch graph, and rolling
		// back must restore it exactly.
		on, oe := canon(old)
		if !reflect.DeepEqual(on, preNodes) || !reflect.DeepEqual(oe, preEdges) {
			t.Fatalf("old view diverges from the pre-batch graph (batch %+v)", ups)
		}
		if err := vg.Rollback(old); err != nil {
			t.Fatalf("rollback: %v", err)
		}
		gn, ge := canon(vg.Graph())
		if !reflect.DeepEqual(gn, preNodes) || !reflect.DeepEqual(ge, preEdges) {
			t.Fatalf("rollback did not restore the pre-batch graph (batch %+v)", ups)
		}
		if err := vg.Graph().CheckIndex(); err != nil {
			t.Fatalf("after rollback: %v (batch %+v)", err, ups)
		}
	})
}
