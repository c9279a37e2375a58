package ha

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
)

// TestJournalRecovery is the recovery acceptance criterion: a journaled
// coordinator is stopped and rebuilt from snapshot+journal; the
// re-fragmented cluster (even across a different worker count) answers
// every pattern exactly as the pre-restart cluster did, standing
// watches survive, and incremental maintenance continues from the
// recovered state.
func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSpawnPool(3, server.Config{})
	ts, err := pool.Primaries(3)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Social(gen.DefaultSocial(200, 41))
	c, err := cluster.New(g, ts, cluster.Config{D: 2, Pool: pool, Journal: j})
	if err != nil {
		t.Fatal(err)
	}

	q0, q1 := mustParse(t, chaosPatterns[0]), mustParse(t, chaosPatterns[1])
	if _, err := c.Watch("w0", q0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Watch("doomed", q1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Watch("w1", q1); err != nil {
		t.Fatal(err)
	}
	// Unwatch must be durable too: "doomed" must not resurrect.
	if err := c.Unwatch("doomed"); err != nil {
		t.Fatal(err)
	}
	batches := [][]server.UpdateSpec{
		{{Op: "addEdge", From: 3, To: 17, Label: "follow"}, {Op: "removeNode", From: 9}},
		{{Op: "addNode", Label: "person"}, {Op: "addEdge", From: 200, To: 5, Label: "follow"}},
		{{Op: "removeEdge", From: 3, To: 17, Label: "follow"}, {Op: "addEdge", From: 11, To: 12, Label: "follow"}},
	}
	for i, specs := range batches {
		if _, err := c.Update(specs); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	// Record the pre-restart observable state, then stop everything.
	preGraph := c.Graph()
	preWatches := c.Watches()
	preAnswers := make(map[string][]int64)
	for _, dsl := range chaosPatterns {
		res, err := c.Match(mustParse(t, dsl))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Matches {
			preAnswers[dsl] = append(preAnswers[dsl], int64(v))
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: replay snapshot+journal, re-fragment across a DIFFERENT
	// worker count, re-ship, re-register watches.
	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.HasState() {
		t.Fatal("journal directory reports no recoverable state")
	}
	pool2 := NewSpawnPool(4, server.Config{})
	ts2, err := pool2.Primaries(4)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cluster.Recover(j2.Graph(), j2.Watches(), ts2, cluster.Config{D: 2, Replicas: 2, Pool: pool2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if got := c2.Graph(); got.NumNodes() != preGraph.NumNodes() || got.NumEdges() != preGraph.NumEdges() {
		t.Fatalf("recovered graph %d/%d != pre-restart %d/%d",
			got.NumNodes(), got.NumEdges(), preGraph.NumNodes(), preGraph.NumEdges())
	}
	if got := c2.Watches(); !reflect.DeepEqual(got, preWatches) {
		t.Fatalf("recovered watches %v != pre-restart %v", got, preWatches)
	}
	for _, dsl := range chaosPatterns {
		res, err := c2.Match(mustParse(t, dsl))
		if err != nil {
			t.Fatalf("recovered Match: %v", err)
		}
		got := make([]int64, 0, len(res.Matches))
		for _, v := range res.Matches {
			got = append(got, int64(v))
		}
		if !reflect.DeepEqual(got, append([]int64(nil), preAnswers[dsl]...)) {
			t.Errorf("pattern %q: recovered answers %v != pre-restart %v", dsl, got, preAnswers[dsl])
		}
	}

	// Incremental maintenance continues exactly from the recovered
	// state: the next batch's deltas equal a fresh oracle's.
	oracle, err := dynamic.NewMatcher(c2.Graph(), q0)
	if err != nil {
		t.Fatal(err)
	}
	specs := []server.UpdateSpec{
		{Op: "addEdge", From: 20, To: 21, Label: "follow"},
		{Op: "removeNode", From: 40},
	}
	res, err := c2.Update(specs)
	if err != nil {
		t.Fatal(err)
	}
	ups, _ := server.ToUpdates(specs)
	want, err := oracle.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Deltas {
		if d.Watch != "w0" {
			continue
		}
		if !sameIDs(d.Added, want.Added) || !sameIDs(d.Removed, want.Removed) {
			t.Fatalf("post-recovery delta +%v -%v != oracle +%v -%v", d.Added, d.Removed, want.Added, want.Removed)
		}
	}
}

// canonGraph renders a graph as interner-independent node-label and
// "from to label" edge lists, so graphs that went through different
// interners (the recovered store's vs the original's) compare exactly.
func canonGraph(g *graph.Graph) (nodes, edges []string) {
	nodes = make([]string, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		nodes[v] = g.NodeLabelName(graph.NodeID(v))
		for _, e := range g.Out(graph.NodeID(v)) {
			edges = append(edges, fmt.Sprintf("%d %d %s", v, e.To, g.LabelName(e.Label)))
		}
	}
	sort.Strings(edges)
	return nodes, edges
}

// TestJournalRecoveryVersionedReplayExact crashes a journaled cluster and
// asserts the recovery replay — which runs every journaled batch through
// the store's versioned in-place core — reconstructs the EXACT pre-crash
// graph, canonically (labels and edges, not just counts), and that the
// recovered cluster's watch answers equal both the pre-crash answers and
// an independent versioned-core replay of the same batches.
func TestJournalRecoveryVersionedReplayExact(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSpawnPool(2, server.Config{})
	ts, err := pool.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Social(gen.DefaultSocial(150, 17))
	// Independent replay reference: the same initial graph maintained by
	// Versioned.Apply alone, no cluster or journal involved.
	vg := graph.NewVersioned(g.Clone())

	c, err := cluster.New(g, ts, cluster.Config{D: 2, Pool: pool, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	q0 := mustParse(t, chaosPatterns[0])
	initial, err := c.Watch("w0", q0)
	if err != nil {
		t.Fatal(err)
	}
	watchAns := make(map[graph.NodeID]bool)
	for _, v := range initial {
		watchAns[v] = true
	}

	batches := [][]server.UpdateSpec{
		{{Op: "addEdge", From: 1, To: 2, Label: "follow"}, {Op: "addEdge", From: 1, To: 3, Label: "follow"}, {Op: "addEdge", From: 1, To: 4, Label: "follow"}},
		{{Op: "addNode", Label: "person"}, {Op: "addEdge", From: 150, To: 1, Label: "follow"}},
		{{Op: "removeNode", From: 7}, {Op: "removeEdge", From: 1, To: 2, Label: "follow"}},
	}
	for i, specs := range batches {
		res, err := c.Update(specs)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		for _, d := range res.Deltas {
			for _, v := range d.Added {
				watchAns[graph.NodeID(v)] = true
			}
			for _, v := range d.Removed {
				delete(watchAns, graph.NodeID(v))
			}
		}
		ups, err := server.ToUpdates(specs)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := vg.Apply(ups); err != nil {
			t.Fatalf("batch %d versioned replay: %v", i, err)
		}
	}

	preNodes, preEdges := canonGraph(c.Graph())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pool2 := NewSpawnPool(2, server.Config{})
	ts2, err := pool2.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cluster.Recover(j2.Graph(), j2.Watches(), ts2, cluster.Config{D: 2, Pool: pool2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// The journal replay (store versioned core) and the independent
	// Versioned.Apply replay must both reproduce the pre-crash graph
	// exactly.
	recNodes, recEdges := canonGraph(c2.Graph())
	if !reflect.DeepEqual(recNodes, preNodes) || !reflect.DeepEqual(recEdges, preEdges) {
		t.Fatal("recovered graph diverges canonically from the pre-crash graph")
	}
	repNodes, repEdges := canonGraph(vg.Graph())
	if !reflect.DeepEqual(repNodes, preNodes) || !reflect.DeepEqual(repEdges, preEdges) {
		t.Fatal("independent versioned replay diverges canonically from the pre-crash graph")
	}

	// Watch answers: the recovered cluster serves the same answer set the
	// crashed cluster had accumulated, which equals a fresh evaluation
	// over the replayed versioned graph.
	res, err := c2.Match(q0)
	if err != nil {
		t.Fatal(err)
	}
	if want := sortedNodeSet(watchAns); !reflect.DeepEqual(res.Matches, want) {
		t.Fatalf("recovered watch answers %v != pre-crash %v", res.Matches, want)
	}
	if want := oracleAnswers(t, vg.Graph(), q0); !reflect.DeepEqual(res.Matches, want) {
		t.Fatalf("recovered watch answers %v != versioned-replay oracle %v", res.Matches, want)
	}
}

// TestJournalWatchManifest: the watch manifest round-trips and SetGraph
// clears it (a new graph starts with no standing watches).
func TestJournalWatchManifest(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if j.HasState() {
		t.Fatal("fresh journal claims state")
	}
	if err := j.WatchRegistered("a", "pat-a"); err != nil {
		t.Fatal(err)
	}
	if err := j.WatchRegistered("b", "pat-b"); err != nil {
		t.Fatal(err)
	}
	if err := j.WatchRemoved("a"); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Watches(); !reflect.DeepEqual(got, map[string]string{"b": "pat-b"}) {
		t.Fatalf("recovered watches = %v", got)
	}
	if !j2.HasState() {
		t.Fatal("journal with watches claims no state")
	}
	if err := j2.SetGraph(gen.Social(gen.DefaultSocial(30, 1))); err != nil {
		t.Fatal(err)
	}
	if got := j2.Watches(); len(got) != 0 {
		t.Fatalf("watches survived SetGraph: %v", got)
	}
}
