package graph

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// rowsOf copies every row of a view, out rows then in rows.
func rowsOf(g View) [][]Edge {
	rows := make([][]Edge, 0, 2*g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		rows = append(rows, slices.Clone(g.Out(NodeID(v))))
	}
	for v := 0; v < g.NumNodes(); v++ {
		rows = append(rows, slices.Clone(g.In(NodeID(v))))
	}
	return rows
}

func sameRows(a, b [][]Edge) bool {
	return slices.EqualFunc(a, b, func(x, y []Edge) bool { return slices.Equal(x, y) })
}

// Removing a hub logs one entry per neighbour row. Nothing that follows —
// the apply itself, a reader going through every edited row, the rollback
// — may walk the log once per row: each is pinned to O(n log n) log
// entries for a hub of n neighbours, by count. The old view indexes the
// log by row once, on the first read of an edited row; reading the rows
// again visits nothing.
func TestHubRemovalVisitsLogOncePerEntry(t *testing.T) {
	const n = 3000
	g := New(n + 1)
	hub := g.AddNode("hub")
	for i := 1; i <= n; i++ {
		v := g.AddNode("spoke")
		g.AddEdge(hub, v, "to")
		if i%2 == 0 {
			g.AddEdge(v, hub, "back")
		}
		if i > 1 {
			g.AddEdge(v, v-1, "ring")
		}
	}
	g.Finalize()
	before := rowsOf(g)

	batch := []Mutation{{Op: MutAddEdge, From: 5, To: hub, Label: "late"}}
	for i := 10; i < 400; i += 3 { // the hub's neighbours are edited on their own too
		batch = append(batch,
			Mutation{Op: MutRemoveEdge, From: NodeID(i), To: NodeID(i - 1), Label: "ring"},
			Mutation{Op: MutAddEdge, From: NodeID(i), To: NodeID(i + 1000), Label: "ring"})
	}
	batch = append(batch,
		Mutation{Op: MutRemoveNode, From: hub},
		Mutation{Op: MutAddEdge, From: hub, To: 7, Label: "reborn"},
		Mutation{Op: MutAddEdge, From: 8, To: 9, Label: "ring"})

	vg := NewVersioned(g)
	limit := n * bits.Len(n)
	spent := func(what string, f func()) {
		t.Helper()
		start := vg.visits
		f()
		if got := vg.visits - start; got > limit {
			t.Fatalf("%s visited %d log entries for a hub of %d neighbours, limit %d", what, got, n, limit)
		}
	}
	var old *OldView
	spent("apply", func() {
		var err error
		if old, err = vg.Apply(batch); err != nil {
			t.Fatal(err)
		}
	})
	if len(vg.log) < n {
		t.Fatalf("the log holds %d entries, fewer than the hub has neighbours", len(vg.log))
	}
	spent("reading every old row", func() {
		if !sameRows(rowsOf(old), before) {
			t.Fatal("old view diverges from the pre-batch rows")
		}
	})
	start := vg.visits
	if !sameRows(rowsOf(old), before) {
		t.Fatal("second read of the old view diverges")
	}
	if vg.visits != start {
		t.Fatalf("reading built rows again visited %d log entries", vg.visits-start)
	}
	spent("rollback", func() {
		if err := vg.Rollback(old); err != nil {
			t.Fatal(err)
		}
	})
	if !sameRows(rowsOf(g), before) {
		t.Fatal("rollback did not restore the rows")
	}
	requireIndex(t, g, "after rolling the hub back")
}

// The fan-out plans every worker's share of a batch at once, all reading
// one old view: building a row on first read must be safe between readers
// (run under -race).
func TestOldViewSharedBetweenReaders(t *testing.T) {
	g := indexGraph(5)
	before := rowsOf(g)
	vg := NewVersioned(g)
	old, err := vg.Apply([]Mutation{
		{Op: MutRemoveNode, From: 3},
		{Op: MutAddEdge, From: 1, To: 2, Label: "fresh-label"},
		{Op: MutRemoveEdge, From: 4, To: g.Out(4)[0].To, Label: g.LabelName(g.Out(4)[0].Label)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !sameRows(rowsOf(old), before) {
				t.Error("old view diverges from the pre-batch rows")
			}
		}()
	}
	wg.Wait()
}

// A copy taken before a batch keeps the rows it copied: the batch edits
// the original's rows where they lie, and none of that may show through.
func TestCloneTakenBeforeApplyIsUnchanged(t *testing.T) {
	g := indexGraph(9)
	cl := g.Clone()
	want := rowsOf(cl)
	r := rand.New(rand.NewSource(9))
	vg := NewVersioned(g)
	for step := 0; step < 20; step++ {
		n := g.NumNodes()
		batch := []Mutation{{Op: MutRemoveNode, From: NodeID(r.Intn(n))}}
		for i := 0; i < 10; i++ {
			op := MutAddEdge
			if i%2 == 1 {
				op = MutRemoveEdge
			}
			batch = append(batch, Mutation{Op: op, From: NodeID(r.Intn(n)), To: NodeID(r.Intn(n)), Label: string(rune('A' + r.Intn(12)))})
		}
		if _, err := vg.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	if !sameRows(rowsOf(cl), want) {
		t.Fatal("batches applied to the original reached its clone")
	}
	requireIndex(t, cl, "clone after the original's batches")
}

// Finalize packs the rows of a direction into one array, and Apply edits
// them there. An insert into a packed row — full, or with the room an
// earlier removal left — may not write the row stored behind it: the graph
// must be what building everything at once gives (the Versioned twin of
// TestAddEdgeAfterFinalizeLeavesNeighboursAlone).
func TestApplyOnPackedRowsLeavesNeighboursAlone(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 30
	var first, second, gone []Mutation
	for i := 0; i < 400; i++ {
		m := Mutation{Op: MutAddEdge, From: NodeID(r.Intn(n)), To: NodeID(r.Intn(n)), Label: string(rune('a' + r.Intn(5)))}
		switch {
		case i < 250:
			first = append(first, m)
			if i%5 == 0 {
				m.Op = MutRemoveEdge
				gone = append(gone, m)
			}
		default:
			second = append(second, m)
		}
	}
	build := func(edges ...[]Mutation) *Graph {
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddNode("node")
		}
		for _, ms := range edges {
			for _, m := range ms {
				g.AddEdge(m.From, m.To, m.Label)
			}
		}
		g.Finalize()
		return g
	}
	vg := NewVersioned(build(first))
	// Removals first, so that the inserts find rows with one slot free
	// inside the packed array as well as full ones; then the removed edges
	// go back in.
	for _, batch := range [][]Mutation{gone, second, first} {
		if _, err := vg.Apply(batch); err != nil {
			t.Fatal(err)
		}
		requireIndex(t, vg.Graph(), "after a batch on packed rows")
	}
	atOnce := build(first, second)
	if !reflect.DeepEqual(canon(vg.Graph()), canon(atOnce)) {
		t.Fatal("editing packed rows in place diverges from building the graph at once")
	}
	if !sameRows(rowsOf(vg.Graph())[n:], rowsOf(atOnce)[n:]) {
		t.Fatal("in rows diverge from building the graph at once")
	}
}

// A node removed by a batch can gain edges later in the same batch: its
// rows then hold a dropped row under later edits, and both the old view
// and Rollback have to get back to the row as it was.
func TestEdgeOntoNodeRemovedInTheSameBatch(t *testing.T) {
	g := testGraph()
	before := rowsOf(g)
	vg := NewVersioned(g)
	old, err := vg.Apply([]Mutation{
		{Op: MutRemoveEdge, From: 0, To: 3, Label: "rate"},
		{Op: MutRemoveNode, From: 0},
		{Op: MutAddEdge, From: 0, To: 4, Label: "rate"},
		{Op: MutAddEdge, From: 1, To: 0, Label: "follow"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := editLines(old, old.Edits()), []string{"0 1 follow -", "0 3 rate -", "0 4 rate +", "1 0 follow +", "2 0 follow -"}; !slices.Equal(got, want) {
		t.Fatalf("edits = %v, want %v", got, want)
	}
	want := []string{"n 0 person", "n 1 person", "n 2 person", "n 3 item", "n 4 item",
		"e 0 4 rate", "e 1 0 follow", "e 1 2 follow", "e 1 3 rate", "e 2 4 rate"}
	if got := canon(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the batch:\n%v\nwant:\n%v", got, want)
	}
	requireIndex(t, g, "after the batch")
	if !sameRows(rowsOf(old), before) {
		t.Fatal("old view diverges from the pre-batch rows")
	}
	if err := vg.Rollback(old); err != nil {
		t.Fatal(err)
	}
	if !sameRows(rowsOf(g), before) {
		t.Fatal("rollback did not restore the rows")
	}
	requireIndex(t, g, "after rollback")
}

// A batch that opens with a re-pack is still one batch: its old view reads
// the rows as they were, Rollback gives them back, and the index holds.
// Small rows under many inserts and node removals (dropped rows) leave
// their arena fast, so both directions re-pack many times in the run.
func TestRepackKeepsBatchesWhole(t *testing.T) {
	g := indexGraph(5)
	vg := NewVersioned(g)
	r := rand.New(rand.NewSource(5))
	var repacks [2]int
	for step := 0; step < 300; step++ {
		n := g.NumNodes()
		var batch []Mutation
		for i := 0; i < 8; i++ {
			from := NodeID(r.Intn(n))
			switch row := g.Out(from); {
			case i == 0 && step%7 == 0:
				batch = append(batch, Mutation{Op: MutRemoveNode, From: from})
			case i%3 == 2 && len(row) > 0:
				e := row[r.Intn(len(row))]
				batch = append(batch, Mutation{Op: MutRemoveEdge, From: from, To: e.To, Label: g.LabelName(e.Label)})
			default:
				batch = append(batch, Mutation{Op: MutAddEdge, From: from, To: NodeID(r.Intn(n)), Label: string(rune('A' + r.Intn(12)))})
			}
		}
		due := [2]bool{vg.deadOut > g.numEdges/repackShare, vg.deadIn > g.numEdges/repackShare}
		before := rowsOf(g)
		old, err := vg.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		requireIndex(t, g, "after a batch")
		if !sameRows(rowsOf(old), before) {
			t.Fatalf("step %d (re-pack due: %v): old view diverges from the pre-batch rows", step, due)
		}
		if !due[0] && !due[1] {
			continue
		}
		for d, ok := range due {
			if ok {
				repacks[d]++
			}
		}
		if err := vg.Rollback(old); err != nil {
			t.Fatal(err)
		}
		if !sameRows(rowsOf(g), before) {
			t.Fatalf("step %d: rollback of a re-packing batch did not restore the rows", step)
		}
		requireIndex(t, g, "after rolling back a re-packing batch")
		if _, err := vg.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	if repacks[0] < 3 || repacks[1] < 3 {
		t.Fatalf("re-packs out, in: %v; the run should see several of each", repacks)
	}
	t.Logf("re-packs out, in: %v", repacks)
}
