package ha

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// applyAndAppend applies a batch to vg, whose graph j persists, and then
// journals it: the order the coordinator keeps.
func applyAndAppend(t *testing.T, j *Journal, vg *graph.Versioned, specs ...server.UpdateSpec) {
	t.Helper()
	ups, err := server.ToUpdates(specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := vg.Apply(ups); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch(specs); err != nil {
		t.Fatal(err)
	}
}

// binaryOf is g in the binary graph format, the bytes snapshots hold.
func binaryOf(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// churn is batch i of a stream of single-edge updates over the first n
// nodes, alternately adding and removing follow edges.
func churn(i, n int) []server.UpdateSpec {
	from := int64((i*7919 + 13) % n)
	to := int64((i*104729 + 31) % n)
	if from == to {
		to = (to + 1) % int64(n)
	}
	op := "addEdge"
	if i%2 == 1 {
		op = "removeEdge"
	}
	return []server.UpdateSpec{{Op: op, From: from, To: to, Label: "follow"}}
}

// TestJournalCompactionBounded exercises the size-threshold compaction
// policy end to end: a journaled coordinator absorbs many update batches
// and the on-disk journal must stay bounded near the threshold instead
// of growing with the update history — a long-lived coordinator's
// directory is proportional to the graph, not its lifetime. The
// compacted journal must still recover: a rebuild from the directory
// reproduces the exact graph.
func TestJournalCompactionBounded(t *testing.T) {
	dir := t.TempDir()
	// A threshold small enough that the run compacts several times, with
	// headroom over the largest single batch.
	const threshold = 2 << 10
	j, err := OpenJournal(dir, JournalOptions{CompactBytes: threshold})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSpawnPool(2, server.Config{})
	ts, err := pool.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Social(gen.DefaultSocial(120, 17))
	c, err := cluster.New(g, ts, cluster.Config{D: 2, Pool: pool, Journal: j})
	if err != nil {
		t.Fatal(err)
	}

	const graphSize = 120
	var maxSeen int64
	for i := 0; i < 400; i++ {
		if _, err := c.Update(churn(i, graphSize)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		size, err := j.JournalBytes()
		if err != nil {
			t.Fatal(err)
		}
		if size > maxSeen {
			maxSeen = size
		}
	}
	// The journal may exceed the threshold by at most one batch, and only
	// inside AppendBatch: the append that grows it past the threshold is
	// folded into a snapshot before it returns.
	const slack = 256 // one tiny batch's records
	if maxSeen > threshold+slack {
		t.Fatalf("journal grew to %d bytes despite a %d-byte compaction threshold", maxSeen, threshold)
	}
	want := c.Graph()
	c.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The compacted directory still recovers the exact graph.
	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.Graph()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("recovered graph %d/%d != pre-close %d/%d",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}

	// Without the policy the same run keeps every record: sanity-check the
	// bound is the policy's doing, not an artifact of batch sizes.
	dir2 := t.TempDir()
	ju, err := OpenJournal(dir2, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ju.Close()
	vg := graph.NewVersioned(g.Clone())
	if err := ju.SetGraph(vg.Graph()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		applyAndAppend(t, ju, vg, server.UpdateSpec{Op: "addEdge", From: int64(i % graphSize), To: int64((i + 1) % graphSize), Label: "follow"})
	}
	unbounded, err := ju.JournalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if unbounded <= threshold+slack {
		t.Fatalf("unbounded journal stayed at %d bytes; the bounded run proves nothing", unbounded)
	}
	t.Logf("journal peak with policy: %d bytes; without: %d bytes", maxSeen, unbounded)
}

// TestJournalBytes covers the accessor the policy is built on.
func TestJournalBytes(t *testing.T) {
	j, err := OpenJournal(t.TempDir(), JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	before, err := j.JournalBytes()
	if err != nil {
		t.Fatal(err)
	}
	vg := graph.NewVersioned(j.Graph())
	applyAndAppend(t, j, vg, server.UpdateSpec{Op: "addNode", Label: "person"})
	after, err := j.JournalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("journal size %d did not grow past %d after an append", after, before)
	}
	if err := j.SetGraph(vg.Graph()); err != nil {
		t.Fatal(err)
	}
	snapshotted, err := j.JournalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if snapshotted != before {
		t.Fatalf("journal is %d bytes after a snapshot, want the empty size %d", snapshotted, before)
	}
}

// TestJournalKeepsTheCoordinatorsGraph: the journal holds no graph of its
// own. After New it holds the coordinator's, which advances with every
// batch although the journal applies none; after a reopen it holds the
// recovered graph, which Recover adopts, so the pointer the journal gave
// Recover is the graph the recovered coordinator updates. Snapshots are
// taken of that one graph: a run crossing the compaction threshold
// several times reopens to the coordinator's exact bytes.
func TestJournalKeepsTheCoordinatorsGraph(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	j, err := OpenJournal(dir, JournalOptions{CompactBytes: 512, Metrics: reg, Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSpawnPool(2, server.Config{})
	ts, err := pool.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Social(gen.DefaultSocial(120, 29))
	c, err := cluster.New(g, ts, cluster.Config{D: 2, Pool: pool, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	jg := j.Graph()
	if jg == g {
		t.Fatal("the journal holds the caller's graph, not the coordinator's copy")
	}
	for i := 0; i < 120; i++ {
		if _, err := c.Update(churn(i, 120)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	if j.Graph() != jg {
		t.Fatal("the journal's graph changed identity across updates")
	}
	want := binaryOf(t, c.Graph())
	if !bytes.Equal(binaryOf(t, jg), want) {
		t.Fatal("the journal's graph is not the coordinator's: it did not advance with the batches")
	}
	if n := reg.Snapshot().Counters["ha.journal.compactions"]; n < 2 {
		t.Fatalf("%d compactions; the run must cross the threshold at least twice", n)
	}
	c.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rg := j2.Graph()
	if !bytes.Equal(binaryOf(t, rg), want) {
		t.Fatal("reopened journal differs from the coordinator's graph")
	}
	ts2, err := pool.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cluster.Recover(rg, j2.Watches(), ts2, cluster.Config{D: 2, Pool: pool, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Update([]server.UpdateSpec{{Op: "addNode", Label: "person"}, {Op: "addEdge", From: 120, To: 0, Label: "follow"}}); err != nil {
		t.Fatal(err)
	}
	if j2.Graph() != rg || !bytes.Equal(binaryOf(t, rg), binaryOf(t, c2.Graph())) {
		t.Fatal("Recover did not adopt the journal's graph: the recovered coordinator's batch is not in it")
	}

	// A new graph replaces one whose last batch is still only in the
	// journal (gen after an update, on a durable front end).
	c2.Close()
	ts3, err := pool.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := cluster.New(gen.Social(gen.DefaultSocial(50, 3)), ts3, cluster.Config{D: 2, Pool: pool, Journal: j2})
	if err != nil {
		t.Fatalf("a new graph over a journal with pending batches: %v", err)
	}
	defer c3.Close()
	want = binaryOf(t, c3.Graph())
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if !bytes.Equal(binaryOf(t, j3.Graph()), want) {
		t.Fatal("the directory does not hold the new graph")
	}
}

// TestJournalCompactionFailureKeepsBatches: a compaction that cannot
// rewrite the journal (journal.log.tmp is a directory) fails after the
// batch is durable. The batch is accepted and the failure logged; the
// coordinator keeps accepting batches, compacts once the obstacle is gone,
// and the directory reopens to the coordinator's exact graph. Until the
// store kept its old journal appender, the third batch returned the
// compaction error and the fourth panicked under the coordinator's lock.
func TestJournalCompactionFailureKeepsBatches(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var logged []string
	reg := obs.NewRegistry()
	j, err := OpenJournal(dir, JournalOptions{CompactBytes: 64, Metrics: reg, Logf: func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSpawnPool(2, server.Config{})
	ts, err := pool.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(gen.Social(gen.DefaultSocial(60, 5)), ts, cluster.Config{D: 2, Pool: pool, Journal: j, Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obstacle := filepath.Join(dir, "journal.log.tmp")
	if err := os.Mkdir(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := c.Update(churn(i, 60)); err != nil {
			t.Fatalf("batch %d while compaction fails: %v", i, err)
		}
	}
	mu.Lock()
	failed := 0
	for _, line := range logged {
		if strings.Contains(line, "failed") {
			failed++
		}
	}
	mu.Unlock()
	if failed == 0 || reg.Snapshot().Counters["ha.journal.compactions"] != 0 {
		t.Fatalf("%d failed compactions logged, %d counted as done; want failures only", failed, reg.Snapshot().Counters["ha.journal.compactions"])
	}
	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(churn(12, 60)); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counters["ha.journal.compactions"]; n != 1 {
		t.Fatalf("%d compactions once the obstacle was gone, want 1", n)
	}
	want := binaryOf(t, c.Graph())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !bytes.Equal(binaryOf(t, j2.Graph()), want) {
		t.Fatal("reopened journal differs from the coordinator's graph")
	}
}
