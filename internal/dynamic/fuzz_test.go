package dynamic

// FuzzVersionedApply decodes arbitrary bytes into an update batch, applies
// it through the versioned in-place core and through the rebuild oracle,
// and demands the two paths agree: same accept/reject decision, and on
// acceptance a canonically identical finalized graph, net edits that are
// the two edge sets' difference, a log that replays the batch and its
// rollback wherever it reaches back, an old view equal to the pre-batch
// graph however it is read, and a rollback that restores that graph — after
// which a second batch goes through the same. A rejected batch must leave
// the versioned graph untouched.
//
// The byte decoder is deliberately total — every input decodes to SOME
// batch (possibly invalid, exercising the rejection path), so the fuzzer
// spends its budget on semantics rather than parse errors.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
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
func decodeBatch(data []byte) []graph.Mutation {
	var ups []graph.Mutation
	for i := 0; i+2 < len(data) && len(ups) < 12; i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		from := graph.NodeID(a%20) - 2 // [-2, 17]: in range, out of range, negative
		to := graph.NodeID(b % 20)
		label := fuzzLabels[int(b)%len(fuzzLabels)]
		switch op % 4 {
		case 0:
			ups = append(ups, graph.AddNode(label))
		case 1:
			ups = append(ups, graph.AddEdge(from, to, label))
		case 2:
			ups = append(ups, graph.RemoveEdge(from, to, label))
		case 3:
			ups = append(ups, graph.Mutation{Op: graph.MutRemoveNode, From: from})
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
	f.Add([]byte{1, 8, 8, 3, 8, 0})                   // edge onto node 6, then node 6 removed: an edit under a dropped row
	f.Add([]byte{3, 2, 0, 1, 2, 5, 1, 9, 2})          // node 0 removed, then edges onto the tombstone

	f.Fuzz(func(t *testing.T, data []byte) {
		ups := decodeBatch(data)
		if len(ups) == 0 {
			t.Skip()
		}
		base := fuzzBase()
		vg := graph.NewVersioned(base.Clone())
		if !fuzzApplyBoth(t, base, vg, ups, data) {
			return
		}
		// A second batch over the rolled-back graph, whose rows now carry
		// the slack and the shifted tails the first one left: none of
		// that may leak into a row.
		if ups = decodeBatch(data[1:]); len(ups) > 0 {
			fuzzApplyBoth(t, base, vg, ups, data[1:])
		}
	})
}

// fuzzApplyBoth applies ups to vg in place and to base through the rebuild
// oracle, which leaves base as it was: the pre-batch graph the old view is
// held against, row for row — vg began as base's clone, so the two agree
// on the id of every label base knows. It compares decision, result, net
// edits, log, old view and rollback, and reports whether the batch was
// accepted; vg is back at base's state either way. reads picks the rows of
// the old view that are read before all of them are.
func fuzzApplyBoth(t *testing.T, base *graph.Graph, vg *graph.Versioned, ups []graph.Mutation, reads []byte) bool {
	preNodes, preEdges := canon(base)
	pre := vg.Graph().Version()
	ng, _, errO := Apply(base, ups)
	old, errV := vg.Apply(ups)

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
		return false
	}
	requireCanonEqual(t, ng, vg.Graph(), "fuzz")
	// The label-run index is replaced with the rows it summarizes.
	if err := vg.Graph().CheckIndex(); err != nil {
		t.Fatalf("after apply: %v (batch %+v)", err, ups)
	}

	// The net edits are the two edge sets' difference, once each.
	_, postEdges := canon(ng)
	gotNew, gotGone := editStrings(vg.Graph(), old.Edits())
	if added, removed := sortedMinus(postEdges, preEdges), sortedMinus(preEdges, postEdges); !slices.Equal(gotNew, added) || !slices.Equal(gotGone, removed) {
		t.Fatalf("edits +%v -%v, the batch moved +%v -%v (batch %+v)", gotNew, gotGone, added, removed, ups)
	}
	// The log holds the batch wherever it fits, |V|/8 edits.
	held := map[graph.Version][]string{pre: preEdges}
	fits := func(edits int) bool { return edits <= vg.Graph().NumNodes()/8 }
	if reached := checkLog(t, vg.Graph(), held, "after the batch"); !reached[pre] && fits(len(old.Edits())) {
		t.Fatalf("the log dropped a batch of %d edits (batch %+v)", len(old.Edits()), ups)
	}

	// The old view builds a pre-batch row when it is first read. Read it
	// the way its callers do — a few rows, in any order, membership before
	// the row, ids the batch created among them — and then all of it.
	n := base.NumNodes()
	oldRow := func(v graph.NodeID, in bool) {
		got, want := old.Out(v), []graph.Edge(nil)
		if in {
			got = old.In(v)
		}
		if int(v) < n {
			want = base.Out(v)
			if in {
				want = base.In(v)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("old view row of %d (in=%v) is %v, the pre-batch graph has %v (batch %+v)", v, in, got, want, ups)
		}
	}
	for _, b := range reads {
		v, in := graph.NodeID(int(b>>1)%(n+2)), b&1 == 1
		if !in {
			to := graph.NodeID(int(b) % n)
			for l := graph.LabelID(0); int(l) < base.Labels(); l++ {
				if got, want := slices.Contains(old.Out(v), graph.Edge{To: to, Label: l}), int(v) < n && base.HasEdge(v, to, l); got != want {
					t.Fatalf("old view has edge (%d, %d, %d) = %v, the pre-batch graph says %v (batch %+v)", v, to, l, got, want, ups)
				}
			}
		}
		oldRow(v, in)
	}
	for v := graph.NodeID(0); int(v) < n+2; v++ {
		oldRow(v, false)
		oldRow(v, true)
	}
	on, oe := canon(old)
	if !reflect.DeepEqual(on, preNodes) || !reflect.DeepEqual(oe, preEdges) {
		t.Fatalf("old view diverges from the pre-batch graph (batch %+v)", ups)
	}
	post := vg.Graph().Version()
	held[post] = postEdges
	edits := len(old.Edits())
	if err := vg.Rollback(old); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	gn, ge := canon(vg.Graph())
	if !reflect.DeepEqual(gn, preNodes) || !reflect.DeepEqual(ge, preEdges) {
		t.Fatalf("rollback did not restore the pre-batch graph (batch %+v)", ups)
	}
	if reached := checkLog(t, vg.Graph(), held, "after the rollback"); !reached[post] && fits(edits) {
		t.Fatalf("the log dropped the rollback of %d edits (batch %+v)", edits, ups)
	}
	if err := vg.Graph().CheckIndex(); err != nil {
		t.Fatalf("after rollback: %v (batch %+v)", err, ups)
	}
	return true
}

// editStrings splits edits into the edges they add and remove, in canon's
// form, ascending.
func editStrings(g graph.View, edits []graph.EdgeEdit) (added, removed []string) {
	for _, ed := range edits {
		s := fmt.Sprintf("%d %d %s", ed.From, ed.To, g.LabelName(ed.Label))
		if ed.Added {
			added = append(added, s)
		} else {
			removed = append(removed, s)
		}
	}
	slices.Sort(added)
	slices.Sort(removed)
	return added, removed
}

// sortedMinus returns a \ b for ascending string slices.
func sortedMinus(a, b []string) []string {
	var out []string
	for _, s := range a {
		if _, found := slices.BinarySearch(b, s); !found {
			out = append(out, s)
		}
	}
	return out
}
