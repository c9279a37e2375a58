package graph

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// indexGraph is a random graph over 12 edge labels, so that rows carry
// from one label run to a dozen, plus one node with no edges at all.
func indexGraph(seed int64) *Graph {
	r := rand.New(rand.NewSource(seed))
	g := randomGraph(r, 40, 500, 12)
	g.AddNode("lonely")
	g.Finalize()
	return g
}

func requireIndex(t *testing.T, g *Graph, when string) {
	t.Helper()
	if err := g.CheckIndex(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// The checker must not be vacuous: it reads the index only through the
// public API, so damage to the runs inlined in a region has to surface as
// an error.
func TestCheckIndexCatchesDamage(t *testing.T) {
	// runs returns the run slots of a row of v, where they lie.
	runs := func(g *Graph, in bool, v NodeID) []Edge {
		body, r := g.adj(in).region(int(g.adj(in).off[v]))
		return body[:r]
	}
	damage := []func(g *Graph, v NodeID){
		func(g *Graph, v NodeID) { runs(g, false, v)[0].To-- },                              // a run one edge short
		func(g *Graph, v NodeID) { r := runs(g, false, v); r[0].Label = r[1].Label },        // first label of the row lost
		func(g *Graph, v NodeID) { r := runs(g, true, v); r[len(r)-2].To = r[len(r)-1].To }, // last label of the row lost
		func(g *Graph, v NodeID) { runs(g, false, v)[0].Label = LabelID(g.Labels()) },       // a run under a label the row does not carry
	}
	for i, d := range damage {
		g := indexGraph(1)
		requireIndex(t, g, "fresh graph")
		v := NodeID(0)
		for len(runs(g, false, v)) < 2 || len(runs(g, true, v)) < 2 || runs(g, false, v)[0].To < 2 {
			v++
		}
		d(g, v)
		if g.CheckIndex() == nil {
			t.Errorf("damage %d went unnoticed", i)
		}
	}
}

// A row and its runs are replaced together: after Apply, after Rollback
// and after re-applying, on rows that gained their first edge of a label,
// lost the last one (first and last label of the row included), were
// tombstoned, or belong to a node the batch created.
func TestIndexApplyRollbackApply(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		vg := NewVersioned(indexGraph(seed))
		g := vg.Graph()
		for step := 0; step < 6; step++ {
			n := g.NumNodes()
			batch := []Mutation{
				{Op: MutAddNode, Label: "born"},
				{Op: MutAddEdge, From: NodeID(n), To: NodeID(r.Intn(n)), Label: "A"},
				{Op: MutAddEdge, From: NodeID(r.Intn(n)), To: NodeID(n), Label: "fresh-label"},
				{Op: MutRemoveNode, From: NodeID(r.Intn(n))},
			}
			// Strip one node of its first and of its last out-label.
			v := NodeID(r.Intn(n))
			if row := g.Out(v); len(row) > 0 {
				first, last := row[0].Label, row[len(row)-1].Label
				for _, e := range row {
					if e.Label == first || e.Label == last {
						batch = append(batch, Mutation{Op: MutRemoveEdge, From: v, To: e.To, Label: g.LabelName(e.Label)})
					}
				}
			}
			for i := 0; i < 8; i++ {
				op := MutAddEdge
				if r.Intn(2) == 0 {
					op = MutRemoveEdge
				}
				batch = append(batch, Mutation{Op: op, From: NodeID(r.Intn(n)), To: NodeID(r.Intn(n)), Label: string(rune('A' + r.Intn(12)))})
			}

			before := canon(g)
			old, err := vg.Apply(batch)
			if err != nil {
				t.Fatal(err)
			}
			requireIndex(t, g, "after apply")
			after := canon(g)
			if err := vg.Rollback(old); err != nil {
				t.Fatal(err)
			}
			requireIndex(t, g, "after rollback")
			if !reflect.DeepEqual(canon(g), before) {
				t.Fatal("rollback did not restore the graph")
			}
			if _, err := vg.Apply(batch); err != nil {
				t.Fatal(err)
			}
			requireIndex(t, g, "after re-apply")
			if !reflect.DeepEqual(canon(g), after) {
				t.Fatal("re-apply diverges from the first apply")
			}
		}
	}
}

// Every way of producing a graph leaves a valid index, and a copy's index
// is its own: maintaining the copy in place must not reach the original's.
func TestIndexAcrossCopies(t *testing.T) {
	g := indexGraph(7)
	requireIndex(t, g, "finalize")

	var nodes []NodeID
	for v := 0; v < g.NumNodes(); v += 2 {
		nodes = append(nodes, NodeID(v))
	}
	sub, _ := g.Induced(nodes)
	requireIndex(t, sub, "induced")

	var text bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	fromText, err := Read(&text, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	requireIndex(t, fromText, "text round trip")

	var bin bytes.Buffer
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(&bin, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	requireIndex(t, fromBin, "binary round trip")

	cl := g.Clone()
	requireIndex(t, cl, "clone")
	vg := NewVersioned(cl)
	if _, err := vg.Apply([]Mutation{
		{Op: MutRemoveNode, From: 0},
		{Op: MutRemoveEdge, From: 1, To: g.Out(1)[0].To, Label: g.LabelName(g.Out(1)[0].Label)},
		{Op: MutAddEdge, From: 2, To: 3, Label: "fresh-label"},
	}); err != nil {
		t.Fatal(err)
	}
	requireIndex(t, cl, "clone after apply")
	requireIndex(t, g, "original after the clone's apply")
}

// Finalize packs the rows of a direction into one array. Growing a
// finalized graph by AddEdge and finalizing again must give what building
// everything at once gives: an append to a packed row may not spill into
// the row stored behind it.
func TestAddEdgeAfterFinalizeLeavesNeighboursAlone(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	type edge struct {
		from, to NodeID
		label    string
	}
	var first, second []edge
	const n = 30
	for i := 0; i < 400; i++ {
		e := edge{NodeID(r.Intn(n)), NodeID(r.Intn(n)), string(rune('a' + r.Intn(5)))}
		if i < 250 {
			first = append(first, e)
		} else {
			second = append(second, e)
		}
	}
	build := func(batches ...[]edge) *Graph {
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode("node")
		}
		for _, b := range batches {
			for _, e := range b {
				g.AddEdge(e.from, e.to, e.label)
			}
			g.Finalize()
		}
		return g
	}
	grown, atOnce := build(first, second), build(append(first[:len(first):len(first)], second...))
	requireIndex(t, grown, "grown after finalize")
	if !reflect.DeepEqual(canon(grown), canon(atOnce)) {
		t.Fatal("growing a finalized graph diverges from building it at once")
	}
	if grown.NumEdges() != atOnce.NumEdges() {
		t.Fatalf("edge count %d, built at once %d", grown.NumEdges(), atOnce.NumEdges())
	}
}
