package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestFreshStoreEmpty(t *testing.T) {
	s := openT(t, t.TempDir())
	if s.NumNodes() != 0 || s.NumEdges() != 0 {
		t.Fatalf("fresh store has %d nodes, %d edges", s.NumNodes(), s.NumEdges())
	}
	g := s.Graph()
	if g.NumNodes() != 0 {
		t.Fatal("fresh graph not empty")
	}
}

func TestApplyAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	first, err := s.Apply(
		graph.AddNode("Person"), graph.AddNode("Person"), graph.AddNode("Product"),
		graph.AddEdge(0, 1, "follow"), graph.AddEdge(1, 2, "buy"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Errorf("first node id = %d, want 0", first)
	}
	if s.NumNodes() != 3 || s.NumEdges() != 2 {
		t.Fatalf("state = %d/%d, want 3/2", s.NumNodes(), s.NumEdges())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	if s2.NumNodes() != 3 || s2.NumEdges() != 2 {
		t.Fatalf("reopened = %d/%d, want 3/2", s2.NumNodes(), s2.NumEdges())
	}
	g := s2.Graph()
	if !g.HasEdge(0, 1, g.LookupLabel("follow")) {
		t.Error("follow edge lost across reopen")
	}
	rec := s2.Recovery()
	if rec.Applied != 5 || rec.TornTail {
		t.Errorf("recovery = %+v, want Applied=5 clean", rec)
	}
}

func TestRemoveEdgeAndNode(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := s.Apply(
		graph.AddNode("A"), graph.AddNode("B"), graph.AddNode("C"),
		graph.AddEdge(0, 1, "x"), graph.AddEdge(1, 2, "x"), graph.AddEdge(2, 0, "y"),
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(graph.RemoveEdge(0, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != 2 {
		t.Fatalf("edges after remove = %d, want 2", s.NumEdges())
	}
	// Removing an absent edge is a no-op.
	if _, err := s.Apply(graph.RemoveEdge(0, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(graph.RemoveNode(2)); err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != 0 {
		t.Fatalf("edges after node isolation = %d, want 0", s.NumEdges())
	}
	if s.NumNodes() != 3 {
		t.Fatalf("node slots must remain: %d, want 3", s.NumNodes())
	}
	s.Close()

	s2 := openT(t, dir)
	if s2.NumEdges() != 0 || s2.NumNodes() != 3 {
		t.Fatalf("reopen after removals = %d/%d, want 3/0", s2.NumNodes(), s2.NumEdges())
	}
}

func TestApplyValidation(t *testing.T) {
	s := openT(t, t.TempDir())
	if _, err := s.Apply(graph.AddEdge(0, 1, "x")); err == nil {
		t.Error("edge between missing nodes accepted")
	}
	// A batch may reference nodes it adds.
	if _, err := s.Apply(graph.AddNode("A"), graph.AddNode("B"), graph.AddEdge(0, 1, "x")); err != nil {
		t.Errorf("intra-batch reference rejected: %v", err)
	}
	if _, err := s.Apply(graph.Mutation{Op: 99}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := s.Apply(graph.RemoveNode(7)); err == nil {
		t.Error("RemoveNode out of range accepted")
	}
	// Failed batches must not change state.
	if s.NumNodes() != 2 || s.NumEdges() != 1 {
		t.Fatalf("state after rejected batches = %d/%d, want 2/1", s.NumNodes(), s.NumEdges())
	}
}

func TestCompactAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := s.Apply(graph.AddNode("A"), graph.AddNode("B"), graph.AddEdge(0, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Journal must be empty now; further mutations append after it.
	if _, err := s.Apply(graph.AddEdge(1, 0, "x")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openT(t, dir)
	if s2.NumNodes() != 2 || s2.NumEdges() != 2 {
		t.Fatalf("after compact+append reopen = %d/%d, want 2/2", s2.NumNodes(), s2.NumEdges())
	}
	rec := s2.Recovery()
	if rec.Applied != 1 {
		t.Errorf("recovery applied = %d, want 1 (only the post-compaction record)", rec.Applied)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := s.Apply(graph.AddNode("A"), graph.AddNode("B")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(graph.AddEdge(0, 1, "x")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Truncate the journal mid-record: drop 3 bytes from the end.
	jpath := filepath.Join(dir, journalName)
	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	rec := s2.Recovery()
	if !rec.TornTail {
		t.Error("torn tail not detected")
	}
	if s2.NumNodes() != 2 || s2.NumEdges() != 0 {
		t.Fatalf("recovered = %d/%d, want 2 nodes, torn edge dropped", s2.NumNodes(), s2.NumEdges())
	}
	// The store remains writable after tail repair, and the repaired
	// journal replays cleanly next time.
	if _, err := s2.Apply(graph.AddEdge(1, 0, "y")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openT(t, dir)
	if s3.Recovery().TornTail {
		t.Error("tail not repaired")
	}
	if s3.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", s3.NumEdges())
	}
}

// JournalBytes is counted, not asked of the file system per batch: it must
// still be the file's size after appends, after a compaction, after a
// clean reopen and after reopening over a torn tail.
func TestJournalBytesTracksTheFile(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, journalName)
	check := func(s *Store, when string) {
		t.Helper()
		got, err := s.JournalBytes()
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
	s := openT(t, dir)
	check(s, "fresh store")
	for i := 0; i < 5; i++ {
		if _, err := s.Apply(graph.AddNode("A"), graph.AddNode("a longer label"), graph.AddEdge(0, 1, "x")); err != nil {
			t.Fatal(err)
		}
		check(s, "after an append")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check(s, "after compaction")
	if _, err := s.Apply(graph.AddEdge(1, 0, "y"), graph.AddEdge(2, 3, "z")); err != nil {
		t.Fatal(err)
	}
	check(s, "after an append to the compacted journal")
	s.Close()

	s = openT(t, dir)
	check(s, "clean reopen")
	if _, err := s.Apply(graph.RemoveEdge(1, 0, "y")); err != nil {
		t.Fatal(err)
	}
	check(s, "after an append to the reopened journal")
	s.Close()

	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s = openT(t, dir)
	if !s.Recovery().TornTail {
		t.Fatal("torn tail not detected")
	}
	check(s, "reopen over a torn tail")
	if _, err := s.Apply(graph.AddNode("B")); err != nil {
		t.Fatal(err)
	}
	check(s, "after an append to the repaired journal")
}

func TestCorruptCRCTruncatesSuffix(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, err := s.Apply(graph.AddNode("A")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(graph.AddNode("B")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	jpath := filepath.Join(dir, journalName)
	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // corrupt the last record's payload
	if err := os.WriteFile(jpath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	if !s2.Recovery().TornTail {
		t.Error("CRC corruption not detected")
	}
	if s2.NumNodes() != 1 {
		t.Errorf("nodes = %d, want 1 (valid prefix only)", s2.NumNodes())
	}
}

func TestBadMagicIsHardError(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Apply(graph.AddNode("A"))
	s.Close()

	jpath := filepath.Join(dir, journalName)
	if err := os.WriteFile(jpath, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestMissingSnapshotIsHardError(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Apply(graph.AddNode("A"))
	s.Close()
	// Remove the snapshot the manifest names.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".qg" {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

func TestImportGraph(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	g := gen.Social(gen.DefaultSocial(80, 3))
	if err := s.ImportGraph(g); err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != g.NumNodes() || s.NumEdges() != g.NumEdges() {
		t.Fatalf("imported = %d/%d, want %d/%d", s.NumNodes(), s.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	s.Close()
	s2 := openT(t, dir)
	if !graphsEqual(s2.Graph(), g) {
		t.Fatal("imported graph differs after reopen")
	}
	if s2.Recovery().Applied != 0 {
		t.Error("import should leave an empty journal")
	}
}

func TestGraphViewImmutable(t *testing.T) {
	s := openT(t, t.TempDir())
	s.Apply(graph.AddNode("A"), graph.AddNode("B"), graph.AddEdge(0, 1, "x"))
	g1 := s.Graph()
	s.Apply(graph.AddEdge(1, 0, "x"))
	g2 := s.Graph()
	if g1.NumEdges() != 1 {
		t.Errorf("old view mutated: %d edges", g1.NumEdges())
	}
	if g2.NumEdges() != 2 {
		t.Errorf("new view = %d edges, want 2", g2.NumEdges())
	}
	if g1 == g2 {
		t.Error("Apply must replace the view")
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.Close()
	if _, err := s.Apply(graph.AddNode("A")); err == nil {
		t.Error("Apply after Close accepted")
	}
	if err := s.Compact(); err == nil {
		t.Error("Compact after Close accepted")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

// Randomized crash-consistency: apply a random mutation stream with
// interspersed compactions and reopens; the store must always equal an
// in-memory reference model.
func TestRandomizedModelEquivalence(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(42))

	type ref struct {
		labels []string
		edges  map[edgeKey]bool
	}
	model := ref{edges: map[edgeKey]bool{}}
	s := openT(t, dir)

	labels := []string{"A", "B", "C"}
	elabels := []string{"x", "y"}
	for step := 0; step < 400; step++ {
		switch op := r.Intn(10); {
		case op < 4 || len(model.labels) < 2: // add node
			l := labels[r.Intn(len(labels))]
			if _, err := s.Apply(graph.AddNode(l)); err != nil {
				t.Fatal(err)
			}
			model.labels = append(model.labels, l)
		case op < 7: // add edge
			f := graph.NodeID(r.Intn(len(model.labels)))
			to := graph.NodeID(r.Intn(len(model.labels)))
			l := elabels[r.Intn(len(elabels))]
			if _, err := s.Apply(graph.AddEdge(f, to, l)); err != nil {
				t.Fatal(err)
			}
			model.edges[edgeKey{f, to, l}] = true
		case op < 8: // remove edge
			f := graph.NodeID(r.Intn(len(model.labels)))
			to := graph.NodeID(r.Intn(len(model.labels)))
			l := elabels[r.Intn(len(elabels))]
			if _, err := s.Apply(graph.RemoveEdge(f, to, l)); err != nil {
				t.Fatal(err)
			}
			delete(model.edges, edgeKey{f, to, l})
		case op < 9: // remove node (isolate)
			v := graph.NodeID(r.Intn(len(model.labels)))
			if _, err := s.Apply(graph.RemoveNode(v)); err != nil {
				t.Fatal(err)
			}
			for k := range model.edges {
				if k.from == v || k.to == v {
					delete(model.edges, k)
				}
			}
		default: // compact or reopen
			if r.Intn(2) == 0 {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			} else {
				s.Close()
				s = openT(t, dir)
			}
		}

		if step%50 == 0 {
			if s.NumNodes() != len(model.labels) || s.NumEdges() != len(model.edges) {
				t.Fatalf("step %d: store %d/%d, model %d/%d",
					step, s.NumNodes(), s.NumEdges(), len(model.labels), len(model.edges))
			}
		}
	}
	// Final deep check through the graph view.
	g := s.Graph()
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
	s, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(graph.AddNode("A"), graph.AddNode("B"), graph.AddEdge(0, 1, "x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openT(t, dir)
	if s2.NumNodes() != 2 || s2.NumEdges() != 1 {
		t.Fatalf("fsync store reopened = %d/%d", s2.NumNodes(), s2.NumEdges())
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
