package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// edgeKey is the tests' reference edge-set model — what the store's
// in-memory state was before the versioned graph core replaced it.
type edgeKey struct {
	from, to graph.NodeID
	label    string
}

// held is a store with the graph it persists, held the way the store's
// callers hold it: every batch is applied to the graph in place, then
// appended.
type held struct {
	*Store
	vg *graph.Versioned
}

func openT(t *testing.T, dir string) *held {
	t.Helper()
	s, g, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return &held{s, graph.NewVersioned(g)}
}

func (h *held) g() *graph.Graph { return h.vg.Graph() }

// apply applies a batch to the held graph, then journals it.
func (h *held) apply(muts ...graph.Mutation) error {
	if _, _, err := h.vg.Apply(muts); err != nil {
		return err
	}
	return h.Append(muts...)
}

func (h *held) mustApply(t *testing.T, muts ...graph.Mutation) {
	t.Helper()
	if err := h.apply(muts...); err != nil {
		t.Fatal(err)
	}
}

// compact folds the journal into a snapshot of the held graph.
func (h *held) compact() error { return h.Snapshot(h.g()) }

func TestFreshStoreEmpty(t *testing.T) {
	h := openT(t, t.TempDir())
	if h.g().NumNodes() != 0 || h.g().NumEdges() != 0 {
		t.Fatalf("fresh store has %d nodes, %d edges", h.g().NumNodes(), h.g().NumEdges())
	}
}

func TestApplyAndReopen(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	h.mustApply(t,
		graph.AddNode("Person"), graph.AddNode("Person"), graph.AddNode("Product"),
		graph.AddEdge(0, 1, "follow"), graph.AddEdge(1, 2, "buy"),
	)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := openT(t, dir)
	g := h2.g()
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("reopened = %d/%d, want 3/2", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 1, g.LookupLabel("follow")) {
		t.Error("follow edge lost across reopen")
	}
	rec := h2.Recovery()
	if rec.Applied != 5 || rec.TornTail {
		t.Errorf("recovery = %+v, want Applied=5 clean", rec)
	}
}

func TestRemoveEdgeAndNode(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	h.mustApply(t,
		graph.AddNode("A"), graph.AddNode("B"), graph.AddNode("C"),
		graph.AddEdge(0, 1, "x"), graph.AddEdge(1, 2, "x"), graph.AddEdge(2, 0, "y"),
	)
	h.mustApply(t, graph.RemoveEdge(0, 1, "x"))
	// Removing an absent edge is a no-op.
	h.mustApply(t, graph.RemoveEdge(0, 1, "x"))
	h.mustApply(t, graph.Mutation{Op: graph.MutRemoveNode, From: 2})
	h.Close()

	g := openT(t, dir).g()
	if g.NumEdges() != 0 || g.NumNodes() != 3 {
		t.Fatalf("reopen after removals = %d/%d, want 3/0 (node slots remain)", g.NumNodes(), g.NumEdges())
	}
}

// The store checks each batch against the node count its journal has
// reached, whatever its caller did: a batch graph.CheckBatch refuses is
// not journaled, and the count moves only with accepted batches.
func TestApplyValidation(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	if err := h.Append(graph.AddEdge(0, 1, "x")); err == nil {
		t.Error("edge between missing nodes accepted")
	}
	// A batch may reference nodes it adds.
	if err := h.apply(graph.AddNode("A"), graph.AddNode("B"), graph.AddEdge(0, 1, "x")); err != nil {
		t.Errorf("intra-batch reference rejected: %v", err)
	}
	size, _ := h.JournalBytes()
	for _, bad := range [][]graph.Mutation{
		{{Op: 99}},
		{graph.Mutation{Op: graph.MutRemoveNode, From: 7}},
		{graph.AddEdge(1, 2, "x")},
	} {
		if err := h.Append(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	if after, _ := h.JournalBytes(); after != size {
		t.Fatalf("refused batches grew the journal from %d to %d bytes", size, after)
	}
	h.Close()
	if g := openT(t, dir).g(); g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("state after rejected batches = %d/%d, want 2/1", g.NumNodes(), g.NumEdges())
	}
}

func TestCompactAndReopen(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	h.mustApply(t, graph.AddNode("A"), graph.AddNode("B"), graph.AddEdge(0, 1, "x"))
	if err := h.compact(); err != nil {
		t.Fatal(err)
	}
	// Journal must be empty now; further mutations append after it.
	h.mustApply(t, graph.AddEdge(1, 0, "x"))
	h.Close()

	h2 := openT(t, dir)
	if g := h2.g(); g.NumNodes() != 2 || g.NumEdges() != 2 {
		t.Fatalf("after compact+append reopen = %d/%d, want 2/2", g.NumNodes(), g.NumEdges())
	}
	if rec := h2.Recovery(); rec.Applied != 1 {
		t.Errorf("recovery applied = %d, want 1 (only the post-compaction record)", rec.Applied)
	}
}

// Snapshot folds only a graph that can hold the records appended since
// the last snapshot: a caller that journaled a batch without applying it
// is refused rather than losing the batch. With no such record pending,
// the graph given replaces the state.
func TestSnapshotRefusesUnappliedRecords(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	h.mustApply(t, graph.AddNode("A"), graph.AddNode("B"), graph.AddEdge(0, 1, "x"))
	if err := h.Append(graph.AddNode("C")); err != nil { // journaled, not applied
		t.Fatal(err)
	}
	if err := h.compact(); !errors.Is(err, ErrUnapplied) {
		t.Fatalf("snapshot of a graph missing a journaled node: %v, want ErrUnapplied", err)
	}
	h.Close()
	h2 := openT(t, dir)
	if g := h2.g(); g.NumNodes() != 3 || g.NumEdges() != 1 {
		t.Fatalf("refused snapshot lost records: reopened %d/%d, want 3/1", g.NumNodes(), g.NumEdges())
	}

	// Nothing pending after a fold: a new graph replaces the state.
	if err := h2.compact(); err != nil {
		t.Fatal(err)
	}
	next := gen.Social(gen.DefaultSocial(20, 2))
	if err := h2.Snapshot(next); err != nil {
		t.Fatalf("replacing a folded state: %v", err)
	}
	h2.Close()
	if g := openT(t, dir).g(); !graphsEqual(g, next) {
		t.Fatal("replacement graph differs after reopen")
	}
}

// A journal rewrite that fails (here journal.log.tmp is a directory)
// fails the snapshot, but the store keeps appending to the journal it
// had, and a reopen recovers every record. Until the rewrite kept its
// old appender, the next append dereferenced nil.
func TestFailedJournalRewriteKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	h.mustApply(t, graph.AddNode("A"), graph.AddNode("B"), graph.AddEdge(0, 1, "x"))
	if err := os.Mkdir(filepath.Join(dir, journalName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := h.compact(); err == nil {
		t.Fatal("snapshot succeeded although the journal could not be rewritten")
	}
	h.mustApply(t, graph.AddEdge(1, 0, "y"), graph.AddNode("C"))
	if _, err := h.JournalBytes(); err != nil {
		t.Fatal(err)
	}
	want := h.g()
	h.Close()
	h2 := openT(t, dir)
	if !graphsEqual(h2.g(), want) {
		t.Fatalf("reopened %d/%d, want %d/%d", h2.g().NumNodes(), h2.g().NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if rec := h2.Recovery(); rec.Applied != 2 || rec.SkippedOld != 3 || rec.TornTail {
		t.Errorf("recovery = %+v, want the 3 folded records skipped and 2 applied", rec)
	}
}

// TestManifestSyncFailureKeepsCommit: CURRENT is the commit point, so its
// new content is synced before the rename that commits it. A sync that
// fails fails the snapshot and renames nothing: CURRENT still names the
// previous snapshot, no temporary file is left, and a reopen recovers
// every record from that snapshot and the journal.
func TestManifestSyncFailureKeepsCommit(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	h.mustApply(t, graph.AddNode("A"), graph.AddNode("B"))
	if err := h.compact(); err != nil {
		t.Fatal(err)
	}
	committed, err := readManifest(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	h.mustApply(t, graph.AddEdge(0, 1, "x"))

	create := createFile
	t.Cleanup(func() { createFile = create })
	createFile = func(name string) (storeFile, error) {
		f, err := create(name)
		if err != nil || filepath.Base(name) != manifestName+".tmp" {
			return f, err
		}
		return &faultyFile{storeFile: f, failSync: true}, nil
	}
	if err := h.compact(); err == nil || !strings.Contains(err.Error(), "injected: fsync failed") {
		t.Fatalf("snapshot with a failing manifest sync: %v, want the injected error", err)
	}
	createFile = create
	if m, err := readManifest(filepath.Join(dir, manifestName)); err != nil || m != committed {
		t.Fatalf("CURRENT after the failed snapshot: %+v (%v), want %+v", m, err, committed)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the manifest's temporary file is left behind: %v", err)
	}
	want := h.g()
	h.Close()
	if g := openT(t, dir).g(); !graphsEqual(g, want) {
		t.Fatalf("reopened %d/%d, want %d/%d", g.NumNodes(), g.NumEdges(), want.NumNodes(), want.NumEdges())
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	h.mustApply(t, graph.AddNode("A"), graph.AddNode("B"))
	h.mustApply(t, graph.AddEdge(0, 1, "x"))
	h.Close()

	// Truncate the journal mid-record: drop 3 bytes from the end.
	jpath := filepath.Join(dir, journalName)
	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := openT(t, dir)
	if !h2.Recovery().TornTail {
		t.Error("torn tail not detected")
	}
	if g := h2.g(); g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Fatalf("recovered = %d/%d, want 2 nodes, torn edge dropped", g.NumNodes(), g.NumEdges())
	}
	// The store remains writable after tail repair, and the repaired
	// journal replays cleanly next time.
	h2.mustApply(t, graph.AddEdge(1, 0, "y"))
	h2.Close()
	h3 := openT(t, dir)
	if h3.Recovery().TornTail {
		t.Error("tail not repaired")
	}
	if h3.g().NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", h3.g().NumEdges())
	}
}

// JournalBytes is counted, not asked of the file system per batch: it must
// still be the file's size after appends, after a compaction, after a
// clean reopen and after reopening over a torn tail.
func TestJournalBytesTracksTheFile(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, journalName)
	check := func(h *held, when string) {
		t.Helper()
		got, err := h.JournalBytes()
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if got != fi.Size() {
			t.Fatalf("%s: JournalBytes = %d, the file holds %d", when, got, fi.Size())
		}
	}
	h := openT(t, dir)
	check(h, "fresh store")
	for i := 0; i < 5; i++ {
		h.mustApply(t, graph.AddNode("A"), graph.AddNode("a longer label"), graph.AddEdge(0, 1, "x"))
		check(h, "after an append")
	}
	if err := h.compact(); err != nil {
		t.Fatal(err)
	}
	check(h, "after compaction")
	h.mustApply(t, graph.AddEdge(1, 0, "y"), graph.AddEdge(2, 3, "z"))
	check(h, "after an append to the compacted journal")
	h.Close()

	h = openT(t, dir)
	check(h, "clean reopen")
	h.mustApply(t, graph.RemoveEdge(1, 0, "y"))
	check(h, "after an append to the reopened journal")
	h.Close()

	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	h = openT(t, dir)
	if !h.Recovery().TornTail {
		t.Fatal("torn tail not detected")
	}
	check(h, "reopen over a torn tail")
	h.mustApply(t, graph.AddNode("B"))
	check(h, "after an append to the repaired journal")
}

// faultyFile is a journal file that fails on request, once per request:
// a write that stops halfway, an fsync after a full write, a truncate.
type faultyFile struct {
	storeFile
	tornWrite, failSync, failTruncate bool
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.tornWrite {
		f.tornWrite = false
		n, _ := f.storeFile.Write(p[:len(p)/2])
		return n, errors.New("injected: disk full")
	}
	return f.storeFile.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errors.New("injected: fsync failed")
	}
	return f.storeFile.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		f.failTruncate = false
		return errors.New("injected: truncate failed")
	}
	return f.storeFile.Truncate(size)
}

// TestFailedAppendLeavesNoBytes: a batch whose append failed — a write that
// stopped halfway, an fsync that failed after a full write — is cut from
// the journal, so later batches land where it began and a reopen replays
// exactly the batches whose Append returned nil, on a fresh journal and on
// a reopened one alike. A failed append that cannot be cut refuses every
// later batch, and a reopen stops before it.
func TestFailedAppendLeavesNoBytes(t *testing.T) {
	dir := t.TempDir()
	var accepted []string
	replayed := func() []string {
		t.Helper()
		s, g, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		labels := []string{}
		for v := 0; v < g.NumNodes(); v++ {
			labels = append(labels, g.NodeLabelName(graph.NodeID(v)))
		}
		return labels
	}
	for round, names := range [][]string{{"a", "b", "c", "d", "e"}, {"f", "g", "h", "i", "j"}} {
		s, _, err := Open(dir, Options{Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		fault := &faultyFile{storeFile: s.jw.f}
		s.jw.f = fault
		for i, name := range names {
			fault.tornWrite, fault.failSync = i == 1, i == 3
			err := s.Append(graph.AddNode(name))
			if fails := i == 1 || i == 3; (err != nil) != fails {
				t.Fatalf("round %d: append %s: %v", round, name, err)
			}
			if err == nil {
				accepted = append(accepted, name)
			}
		}
		s.Close()
		if got := replayed(); !reflect.DeepEqual(got, accepted) {
			t.Fatalf("round %d: reopened with batches %v, accepted %v", round, got, accepted)
		}
	}

	s, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	s.jw.f = &faultyFile{storeFile: s.jw.f, tornWrite: true, failTruncate: true}
	for _, name := range []string{"k", "l"} {
		if err := s.Append(graph.AddNode(name)); err == nil {
			t.Fatalf("append %s accepted after a failed append stayed in the journal", name)
		}
	}
	s.Close()
	if got := replayed(); !reflect.DeepEqual(got, accepted) {
		t.Fatalf("reopened with batches %v, accepted %v", got, accepted)
	}
}

func TestCorruptCRCTruncatesSuffix(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	h.mustApply(t, graph.AddNode("A"))
	h.mustApply(t, graph.AddNode("B"))
	h.Close()

	jpath := filepath.Join(dir, journalName)
	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // corrupt the last record's payload
	if err := os.WriteFile(jpath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := openT(t, dir)
	if !h2.Recovery().TornTail {
		t.Error("CRC corruption not detected")
	}
	if n := h2.g().NumNodes(); n != 1 {
		t.Errorf("nodes = %d, want 1 (valid prefix only)", n)
	}
}

func TestBadMagicIsHardError(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	h.mustApply(t, graph.AddNode("A"))
	h.Close()

	jpath := filepath.Join(dir, journalName)
	if err := os.WriteFile(jpath, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestMissingSnapshotIsHardError(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	h.mustApply(t, graph.AddNode("A"))
	h.Close()
	// Remove the snapshot the manifest names.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".qg" {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

// A bulk load is one snapshot of the loaded graph, no journaled edges.
func TestImportGraph(t *testing.T) {
	dir := t.TempDir()
	h := openT(t, dir)
	g := gen.Social(gen.DefaultSocial(80, 3))
	if err := h.Snapshot(g); err != nil {
		t.Fatal(err)
	}
	h.Close()
	h2 := openT(t, dir)
	if !graphsEqual(h2.g(), g) {
		t.Fatal("imported graph differs after reopen")
	}
	if h2.Recovery().Applied != 0 {
		t.Error("import should leave an empty journal")
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	h := openT(t, t.TempDir())
	h.Close()
	if err := h.Append(graph.AddNode("A")); err == nil {
		t.Error("Append after Close accepted")
	}
	if err := h.compact(); err == nil {
		t.Error("Snapshot after Close accepted")
	}
	if err := h.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

// Randomized crash-consistency: apply a random mutation stream with
// interspersed compactions and reopens; the recovered graph must always
// equal an in-memory reference model.
func TestRandomizedModelEquivalence(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(42))

	type ref struct {
		labels []string
		edges  map[edgeKey]bool
	}
	model := ref{edges: map[edgeKey]bool{}}
	h := openT(t, dir)

	labels := []string{"A", "B", "C"}
	elabels := []string{"x", "y"}
	for step := 0; step < 400; step++ {
		switch op := r.Intn(10); {
		case op < 4 || len(model.labels) < 2: // add node
			l := labels[r.Intn(len(labels))]
			h.mustApply(t, graph.AddNode(l))
			model.labels = append(model.labels, l)
		case op < 7: // add edge
			f := graph.NodeID(r.Intn(len(model.labels)))
			to := graph.NodeID(r.Intn(len(model.labels)))
			l := elabels[r.Intn(len(elabels))]
			h.mustApply(t, graph.AddEdge(f, to, l))
			model.edges[edgeKey{f, to, l}] = true
		case op < 8: // remove edge
			f := graph.NodeID(r.Intn(len(model.labels)))
			to := graph.NodeID(r.Intn(len(model.labels)))
			l := elabels[r.Intn(len(elabels))]
			h.mustApply(t, graph.RemoveEdge(f, to, l))
			delete(model.edges, edgeKey{f, to, l})
		case op < 9: // remove node (isolate)
			v := graph.NodeID(r.Intn(len(model.labels)))
			h.mustApply(t, graph.Mutation{Op: graph.MutRemoveNode, From: v})
			for k := range model.edges {
				if k.from == v || k.to == v {
					delete(model.edges, k)
				}
			}
		default: // compact or reopen
			if r.Intn(2) == 0 {
				if err := h.compact(); err != nil {
					t.Fatal(err)
				}
			} else {
				h.Close()
				h = openT(t, dir)
			}
		}

		if step%50 == 0 {
			if g := h.g(); g.NumNodes() != len(model.labels) || g.NumEdges() != len(model.edges) {
				t.Fatalf("step %d: store %d/%d, model %d/%d",
					step, g.NumNodes(), g.NumEdges(), len(model.labels), len(model.edges))
			}
		}
	}
	// Final deep check through a reopen.
	h.Close()
	g := openT(t, dir).g()
	if g.NumNodes() != len(model.labels) || g.NumEdges() != len(model.edges) {
		t.Fatalf("final: store %d/%d, model %d/%d", g.NumNodes(), g.NumEdges(), len(model.labels), len(model.edges))
	}
	for k := range model.edges {
		if !g.HasEdge(graph.NodeID(k.from), graph.NodeID(k.to), g.LookupLabel(k.label)) {
			t.Fatalf("edge %v missing from store", k)
		}
	}
}

func TestFsyncOptionWorks(t *testing.T) {
	dir := t.TempDir()
	s, g, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	h := &held{s, graph.NewVersioned(g)}
	h.mustApply(t, graph.AddNode("A"), graph.AddNode("B"), graph.AddEdge(0, 1, "x"))
	h.Close()
	if g := openT(t, dir).g(); g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("fsync store reopened = %d/%d", g.NumNodes(), g.NumEdges())
	}
}

func graphsEqual(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for vi := 0; vi < a.NumNodes(); vi++ {
		v := graph.NodeID(vi)
		if a.NodeLabelName(v) != b.NodeLabelName(v) {
			return false
		}
		ae, be := a.Out(v), b.Out(v)
		if len(ae) != len(be) {
			return false
		}
		// Adjacency order depends on interner id assignment, which is not
		// preserved across serialization; compare as sets of (to, label).
		names := func(g *graph.Graph, es []graph.Edge) map[[2]interface{}]bool {
			out := make(map[[2]interface{}]bool, len(es))
			for _, e := range es {
				out[[2]interface{}{e.To, g.LabelName(e.Label)}] = true
			}
			return out
		}
		if !reflect.DeepEqual(names(a, ae), names(b, be)) {
			return false
		}
	}
	return true
}
