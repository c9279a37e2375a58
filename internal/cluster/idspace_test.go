package cluster

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/server"
)

// TestIDSpaceAgainstMaps drives an idSpace and the hash maps it replaced
// (materialized set, owned set, global → local) through one random history
// — nodes materialized in no particular id order, some owned from the
// start, some assigned later — and compares every lookup after every step,
// ids beyond the tables included.
func TestIDSpaceAgainstMaps(t *testing.T) {
	const universe = 300
	r := rand.New(rand.NewSource(5))
	var s idSpace
	nodes := make(map[graph.NodeID]bool)
	owned := make(map[graph.NodeID]bool)
	toLocal := make(map[graph.NodeID]graph.NodeID)
	var toGlobal []graph.NodeID
	for step := 0; step < 400; step++ {
		gv := graph.NodeID(r.Intn(universe))
		switch {
		case !nodes[gv]:
			own := r.Intn(3) == 0
			if lv := s.add(gv); lv != graph.NodeID(len(toGlobal)) {
				t.Fatalf("step %d: add(%d) = local %d, want %d", step, gv, lv, len(toGlobal))
			}
			if own {
				s.setOwned(gv)
			}
			nodes[gv], toLocal[gv] = true, graph.NodeID(len(toGlobal))
			toGlobal = append(toGlobal, gv)
			if own {
				owned[gv] = true
			}
		default:
			s.setOwned(gv) // assigned mid-stream; repeating it is a no-op
			owned[gv] = true
		}
		for v := graph.NodeID(0); v < universe+70; v++ {
			lv, ok := s.local(v)
			if s.has(v) != nodes[v] || ok != nodes[v] || (ok && lv != toLocal[v]) || s.owns(v) != owned[v] {
				t.Fatalf("step %d, node %d: has=%v local=%d,%v owns=%v; maps say %v, %d, %v",
					step, v, s.has(v), lv, ok, s.owns(v), nodes[v], toLocal[v], owned[v])
			}
		}
		var wantOwned []int64
		for v := range owned {
			wantOwned = append(wantOwned, int64(toLocal[v]))
		}
		slices.Sort(wantOwned)
		if got := s.ownedLocal(); s.owned != len(owned) || !(len(got) == 0 && len(wantOwned) == 0) && !reflect.DeepEqual(got, wantOwned) {
			t.Fatalf("step %d: owned = %d, ownedLocal = %v; maps say %d, %v", step, s.owned, got, len(owned), wantOwned)
		}
		if !reflect.DeepEqual(s.toGlobal, toGlobal) {
			t.Fatalf("step %d: toGlobal = %v, want %v", step, s.toGlobal, toGlobal)
		}
	}
	if slices.IsSorted(toGlobal) {
		t.Fatal("the history materialized nodes in ascending order: nothing non-monotone was tested")
	}
}

// requireIDSpaces checks the coordinator's per-fragment tables against the
// authoritative graph: local and global ids invert each other, every node
// has exactly one owner, and an owned node's D-hop neighborhood is
// materialized where it is owned.
func requireIDSpaces(t *testing.T, c *Coordinator) {
	t.Helper()
	g := c.Graph()
	owners := make([]int, g.NumNodes())
	for _, w := range c.workers {
		for lv, gv := range w.ids.toGlobal {
			if got, ok := w.ids.local(gv); !ok || int(got) != lv {
				t.Fatalf("worker %d: toGlobal[%d] = %d but local(%d) = %d, %v", w.id, lv, gv, gv, got, ok)
			}
		}
		held := 0
		for v := 0; v < g.NumNodes()+3; v++ {
			gv := graph.NodeID(v)
			if w.ids.has(gv) {
				held++
			}
			if !w.ids.owns(gv) {
				continue
			}
			owners[v]++
			for _, u := range g.Neighborhood(gv, c.cfg.D) {
				if !w.ids.has(u) {
					t.Fatalf("worker %d owns %d but does not hold %d, within %d hops of it", w.id, gv, u, c.cfg.D)
				}
			}
		}
		if held != len(w.ids.toGlobal) {
			t.Fatalf("worker %d: has() admits %d nodes, toGlobal lists %d", w.id, held, len(w.ids.toGlobal))
		}
	}
	for v, n := range owners {
		if n != 1 {
			t.Fatalf("node %d has %d owners", v, n)
		}
	}
}

// TestReshipAfterFragmentExtension: the id tables are also what failover
// rebuilds a lost fragment from. After the batches of
// TestFragmentExtendedWithLowerID — the far worker's toGlobal no longer
// ascends and it owns a node assigned mid-stream — its primary and its warm
// replica both die; the re-shipped session must have the same local id
// space, so Match, the standing watch and the next batch's deltas still
// equal single-process QMatch.
func TestReshipAfterFragmentExtension(t *testing.T) {
	pool := newTestPool(4)
	ts := InProcessN(2, server.Config{})
	c, err := New(twoIslands(t), ts, Config{D: 2, Replicas: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	requireIDSpaces(t, c)
	q := mustParse(t, "qgp\nn xo person *\nn z person\ne xo z follow >=2\n")
	if _, err := c.Watch("w", q); err != nil {
		t.Fatal(err)
	}
	for i, specs := range extensionBatches {
		if _, err := c.Update(specs); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
		requireIDSpaces(t, c)
	}
	var far *worker
	for _, w := range c.workers {
		if !slices.IsSorted(w.ids.toGlobal) && (w.ids.owns(60) || w.ids.owns(61)) {
			far = w
		}
	}
	if far == nil {
		t.Fatal("no worker has a non-ascending toGlobal and a node assigned mid-stream")
	}

	before := globalAnswers(t, c.Graph(), q)
	handed := pool.handedCount()
	ts[far.id].Close()
	far.copies[1].t.Close()
	res, err := c.Match(q)
	if err != nil {
		t.Fatalf("Match with worker %d's primary and replica dead: %v", far.id, err)
	}
	if !reflect.DeepEqual(nodeIDs(res.Matches), nodeIDs(before)) {
		t.Fatalf("Match after the re-ship = %v, single-process %v", res.Matches, before)
	}
	if pool.handedCount() == handed {
		t.Fatal("no fresh pool session: the fragment was not re-shipped")
	}
	requireIDSpaces(t, c)

	// 60 and 61 each follow exactly two: dropping one edge of each takes
	// both out of the answers, and whichever the far worker owns only the
	// re-shipped session's owned set can report.
	upd, err := c.Update([]server.UpdateSpec{{Op: "removeEdge", From: 61, To: 44, Label: "follow"}, {Op: "removeEdge", From: 60, To: 46, Label: "follow"}})
	if err != nil {
		t.Fatalf("Update after the re-ship: %v", err)
	}
	after := globalAnswers(t, c.Graph(), q)
	set := make(map[graph.NodeID]bool)
	for _, v := range before {
		set[v] = true
	}
	for _, d := range upd.Deltas {
		for _, v := range d.Removed {
			delete(set, graph.NodeID(v))
		}
		for _, v := range d.Added {
			set[graph.NodeID(v)] = true
		}
	}
	if folded := sortedSet(set); !reflect.DeepEqual(folded, nodeIDs(after)) {
		t.Fatalf("answers with the post-re-ship deltas folded in = %v, single-process %v", folded, after)
	}
	if reflect.DeepEqual(before, after) {
		t.Fatal("the last batch changed no answer: the re-shipped watch was not exercised")
	}
}
