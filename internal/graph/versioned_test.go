package graph

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// canon renders a graph in an interner-order-independent canonical
// form: node labels by id, then edge triples sorted by (from, to,
// label name). In-place maintenance and a from-scratch rebuild must
// agree on this even though their LabelID assignments differ.
func canon(g *Graph) []string {
	var lines []string
	for v := 0; v < g.NumNodes(); v++ {
		lines = append(lines, fmt.Sprintf("n %d %s", v, g.NodeLabelName(NodeID(v))))
	}
	var edges []string
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(NodeID(v)) {
			edges = append(edges, fmt.Sprintf("e %d %d %s", v, e.To, g.LabelName(e.Label)))
		}
	}
	sort.Strings(edges)
	return append(lines, edges...)
}

// editLines renders edits as "from to label +|-", in their order.
func editLines(g View, edits []EdgeEdit) []string {
	var lines []string
	for _, e := range edits {
		sign := "-"
		if e.Added {
			sign = "+"
		}
		lines = append(lines, fmt.Sprintf("%d %d %s %s", e.From, e.To, g.LabelName(e.Label), sign))
	}
	return lines
}

func testGraph() *Graph {
	g := New(5)
	for _, l := range []string{"person", "person", "person", "item", "item"} {
		g.AddNode(l)
	}
	g.AddEdge(0, 1, "follow")
	g.AddEdge(1, 2, "follow")
	g.AddEdge(2, 0, "follow")
	g.AddEdge(0, 3, "rate")
	g.AddEdge(1, 3, "rate")
	g.AddEdge(2, 4, "rate")
	g.Finalize()
	return g
}

func TestVersionedApplyMatchesRebuild(t *testing.T) {
	vg := NewVersioned(testGraph())
	batch := []Mutation{
		{Op: MutAddNode, Label: "person"},
		{Op: MutAddEdge, From: 5, To: 0, Label: "follow"},
		{Op: MutAddEdge, From: 0, To: 1, Label: "follow"}, // dup: no-op
		{Op: MutRemoveEdge, From: 1, To: 2, Label: "follow"},
		{Op: MutRemoveEdge, From: 3, To: 4, Label: "never"}, // absent: no-op
		{Op: MutRemoveNode, From: 2},
	}
	old, err := vg.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild the expected graph from scratch.
	want := New(6)
	for _, l := range []string{"person", "person", "person", "item", "item", "person"} {
		want.AddNode(l)
	}
	want.AddEdge(0, 1, "follow")
	want.AddEdge(0, 3, "rate")
	want.AddEdge(1, 3, "rate")
	want.AddEdge(5, 0, "follow")
	want.Finalize()

	if got := canon(vg.Graph()); !reflect.DeepEqual(got, canon(want)) {
		t.Fatalf("in-place result:\n%v\nwant:\n%v", got, canon(want))
	}
	if vg.Graph().NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", vg.Graph().NumEdges())
	}
	// The dup and the absent remove are no edits; the removed node's
	// edges are.
	if got, want := editLines(old, old.Edits()), []string{"1 2 follow -", "2 0 follow -", "2 4 rate -", "5 0 follow +"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("edits = %v, want %v", got, want)
	}

	// The old view still answers pre-batch questions.
	oldEdges := 0
	for v := range NodeID(old.NumNodes()) {
		oldEdges += len(old.Out(v))
	}
	if old.NumNodes() != 5 || oldEdges != 6 {
		t.Fatalf("old view %d/%d, want 5/6", old.NumNodes(), oldEdges)
	}
	follow := old.LookupLabel("follow")
	if !slices.Contains(old.Out(1), Edge{To: 2, Label: follow}) {
		t.Fatal("old view lost edge 1->2")
	}
	if slices.Contains(old.Out(5), Edge{To: 0, Label: follow}) {
		t.Fatal("old view sees the batch's new edge")
	}
	var nbrs []NodeID
	for _, e := range slices.Concat(old.Out(2), old.In(2)) {
		nbrs = append(nbrs, e.To)
	}
	slices.Sort(nbrs)
	if got := slices.Compact(nbrs); !reflect.DeepEqual(got, []NodeID{0, 1, 4}) {
		t.Fatalf("old neighbours of 2 = %v", got)
	}
	if got := vg.Graph().Neighborhood(2, 1); !reflect.DeepEqual(got, []NodeID{2}) {
		t.Fatalf("new 1-hop of tombstoned 2 = %v", got)
	}

	// Degree index maintained in place.
	if got := vg.Graph().CountOut(5, follow); got != 1 {
		t.Fatalf("CountOut(5, follow) = %d", got)
	}
	if got := vg.Graph().CountOut(2, follow); got != 0 {
		t.Fatalf("CountOut(2, follow) = %d after tombstone", got)
	}
	if got := vg.Graph().NodesByLabelName("person"); !reflect.DeepEqual(got, []NodeID{0, 1, 2, 5}) {
		t.Fatalf("NodesByLabel(person) = %v", got)
	}
}

func TestVersionedApplyValidatesUpfront(t *testing.T) {
	vg := NewVersioned(testGraph())
	before := canon(vg.Graph())
	ver := vg.Graph().Version()
	bad := [][]Mutation{
		{{Op: MutAddEdge, From: 0, To: 99, Label: "x"}},
		{{Op: MutRemoveEdge, From: -1, To: 0, Label: "x"}},
		{{Op: MutRemoveNode, From: 5}},
		{{Op: MutAddNode, Label: "p"}, {Op: MutAddEdge, From: 6, To: 0, Label: "x"}},
		{{Op: MutAddEdge, From: 0, To: 1, Label: "x"}, {Op: MutInvalid, From: 0}},
	}
	for i, batch := range bad {
		if _, err := vg.Apply(batch); err == nil {
			t.Fatalf("batch %d: expected error", i)
		}
		if got := canon(vg.Graph()); !reflect.DeepEqual(got, before) {
			t.Fatalf("batch %d: failed apply mutated the graph", i)
		}
		if vg.Graph().Version() != ver {
			t.Fatalf("batch %d: failed apply advanced the version", i)
		}
	}
	// A node added earlier in the batch is addressable later in it.
	if _, err := vg.Apply([]Mutation{
		{Op: MutAddNode, Label: "p"},
		{Op: MutAddEdge, From: 5, To: 5, Label: "self"},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionedRollback(t *testing.T) {
	vg := NewVersioned(testGraph())
	before := canon(vg.Graph())
	old, err := vg.Apply([]Mutation{
		{Op: MutAddNode, Label: "extra"},
		{Op: MutAddEdge, From: 5, To: 2, Label: "follow"},
		{Op: MutRemoveNode, From: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(canon(vg.Graph()), before) {
		t.Fatal("apply was a no-op?")
	}
	if err := vg.Rollback(old); err != nil {
		t.Fatal(err)
	}
	if got := canon(vg.Graph()); !reflect.DeepEqual(got, before) {
		t.Fatalf("rollback result:\n%v\nwant:\n%v", got, before)
	}
	g := vg.Graph()
	if got := g.CountOut(0, g.LookupLabel("follow")); got != 1 {
		t.Fatalf("CountOut(0, follow) = %d after rollback", got)
	}
	if got := g.NodesByLabelName("person"); !reflect.DeepEqual(got, []NodeID{0, 1, 2}) {
		t.Fatalf("NodesByLabel(person) = %v after rollback", got)
	}
	if err := vg.Rollback(old); err == nil {
		t.Fatal("double rollback accepted")
	}
}

func TestOldViewGoesStale(t *testing.T) {
	vg := NewVersioned(testGraph())
	old, err := vg.Apply([]Mutation{{Op: MutAddEdge, From: 0, To: 4, Label: "rate"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vg.Apply([]Mutation{{Op: MutRemoveEdge, From: 0, To: 4, Label: "rate"}}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stale OldView read did not panic")
		}
	}()
	old.Out(0)
}

func TestCloneIsIndependent(t *testing.T) {
	g := testGraph()
	cl := g.Clone()
	if !reflect.DeepEqual(canon(cl), canon(g)) {
		t.Fatal("clone differs")
	}
	vg := NewVersioned(cl)
	if _, err := vg.Apply([]Mutation{{Op: MutRemoveNode, From: 0}}); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 6 || len(g.Out(0)) != 2 {
		t.Fatal("mutating the clone reached the original")
	}
}

func TestInducedOfOldView(t *testing.T) {
	vg := NewVersioned(testGraph())
	old, err := vg.Apply([]Mutation{{Op: MutRemoveNode, From: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sub, toGlobal := InducedOf(old, []NodeID{0, 1, 2})
	if !reflect.DeepEqual(toGlobal, []NodeID{0, 1, 2}) {
		t.Fatalf("toGlobal = %v", toGlobal)
	}
	// The pre-batch triangle 0->1->2->0 survives in the induced sub.
	if sub.NumEdges() != 3 {
		t.Fatalf("induced edges = %d, want 3", sub.NumEdges())
	}
}

// Each edit shifts its row's label runs in place; CheckIndex holds them to
// the runs a rebuild makes after every Apply and every Rollback. The
// batches: the first edge of a label new to a row, sorting between two it
// carries; the removal of the last edge of a middle run; a hub's removal;
// a node added and connected in the same batch; then all four at once.
func TestVersionedRunsMatchRebuild(t *testing.T) {
	build := func() *Graph {
		g := New(8)
		for i := 0; i < 8; i++ {
			g.AddNode("n")
		}
		for _, e := range []struct {
			from, to NodeID
			label    string
		}{
			// Labels intern in first-use order: a < b < c. Node 0 is the hub.
			{0, 1, "a"}, {0, 2, "a"}, {0, 3, "a"}, {0, 4, "b"}, {0, 5, "c"}, {0, 6, "c"},
			{1, 0, "a"}, {2, 0, "c"}, {7, 0, "b"},
			{1, 2, "a"}, {1, 3, "c"}, // row 1 carries a and c, not b
			{2, 3, "a"}, {2, 4, "b"}, {2, 5, "c"}, // row 2's b run is one edge
		} {
			g.AddEdge(e.from, e.to, e.label)
		}
		g.Finalize()
		requireIndex(t, g, "finalize")
		return g
	}
	g := build()
	vg := NewVersioned(g)

	middle := []Mutation{AddEdge(1, 4, "b")}
	lastOfMiddle := []Mutation{RemoveEdge(2, 4, "b")}
	hub := []Mutation{Mutation{Op: MutRemoveNode, From: 0}}
	born := []Mutation{AddNode("n"), AddEdge(8, 3, "b"), AddEdge(5, 8, "c"), AddEdge(8, 8, "a")}
	for _, step := range []struct {
		name  string
		batch []Mutation
		fresh bool // from the built graph, not the previous step's
	}{
		{"new middle label", middle, false},
		{"last edge of a middle run", lastOfMiddle, false},
		{"hub removal", hub, false},
		{"node added and connected", born, false},
		{"all at once", slices.Concat(middle, lastOfMiddle, hub, born), true},
	} {
		if step.fresh {
			g = build()
			vg = NewVersioned(g)
		}
		before := canon(g)
		old, err := vg.Apply(step.batch)
		if err != nil {
			t.Fatal(err)
		}
		requireIndex(t, g, step.name+": apply")
		after := canon(g)
		if err := vg.Rollback(old); err != nil {
			t.Fatal(err)
		}
		requireIndex(t, g, step.name+": rollback")
		if !reflect.DeepEqual(canon(g), before) {
			t.Fatalf("%s: rollback did not restore the graph", step.name)
		}
		// Re-apply, so the next step starts from this one's graph.
		if _, err := vg.Apply(step.batch); err != nil {
			t.Fatal(err)
		}
		requireIndex(t, g, step.name+": re-apply")
		if !reflect.DeepEqual(canon(g), after) {
			t.Fatalf("%s: re-apply diverges from the first apply", step.name)
		}
	}
}
