package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// Random corruption soak: flip/truncate bytes anywhere in the journal.
// Open must never panic and must always produce either a usable store
// (whose graph is a prefix of the original history) or a clean error —
// never silently wrong data past the corruption point.
func TestJournalCorruptionSoak(t *testing.T) {
	// Build a reference history once.
	dir := t.TempDir()
	h := openT(t, dir)
	history := []graph.Mutation{
		graph.AddNode("A"), graph.AddNode("B"), graph.AddNode("C"),
		graph.AddEdge(0, 1, "x"), graph.AddEdge(1, 2, "y"), graph.AddEdge(2, 0, "z"),
		graph.RemoveEdge(0, 1, "x"), graph.AddNode("D"), graph.AddEdge(3, 0, "w"),
	}
	for _, m := range history {
		h.mustApply(t, m)
	}
	h.Close()
	pristine, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	snapshotFiles, err := filepath.Glob(filepath.Join(dir, "snapshot-*.qg"))
	if err != nil || len(snapshotFiles) == 0 {
		t.Fatalf("no snapshot: %v", err)
	}
	snapBytes, _ := os.ReadFile(snapshotFiles[0])
	manBytes, _ := os.ReadFile(filepath.Join(dir, manifestName))

	// prefixStates[k] = (nodes, edges) after the first k mutations.
	type state struct{ nodes, edges int }
	prefixStates := make(map[state]bool)
	{
		nodes, edges := 0, 0
		eset := map[edgeKey]bool{}
		prefixStates[state{0, 0}] = true
		for _, m := range history {
			switch m.Op {
			case graph.MutAddNode:
				nodes++
			case graph.MutAddEdge:
				eset[edgeKey{m.From, m.To, m.Label}] = true
			case graph.MutRemoveEdge:
				delete(eset, edgeKey{m.From, m.To, m.Label})
			}
			edges = len(eset)
			prefixStates[state{nodes, edges}] = true
		}
	}

	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		td := t.TempDir()
		writeFile := func(name string, b []byte) {
			if err := os.WriteFile(filepath.Join(td, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		writeFile(filepath.Base(snapshotFiles[0]), snapBytes)
		writeFile(manifestName, manBytes)

		corrupted := append([]byte(nil), pristine...)
		switch r.Intn(3) {
		case 0: // flip a random byte
			if len(corrupted) > 0 {
				corrupted[r.Intn(len(corrupted))] ^= byte(1 + r.Intn(255))
			}
		case 1: // truncate at a random offset
			corrupted = corrupted[:r.Intn(len(corrupted)+1)]
		case 2: // duplicate a random chunk in the middle
			if len(corrupted) > 16 {
				at := 8 + r.Intn(len(corrupted)-16)
				chunk := corrupted[at : at+4]
				corrupted = append(corrupted[:at:at], append(append([]byte(nil), chunk...), corrupted[at:]...)...)
			}
		}
		writeFile(journalName, corrupted)

		s2, g, err := Open(td, Options{})
		if err != nil {
			continue // clean refusal is acceptable
		}
		got := state{g.NumNodes(), g.NumEdges()}
		if !prefixStates[got] {
			t.Fatalf("trial %d: recovered state %+v is not a history prefix", trial, got)
		}
		// The recovered store must remain writable.
		if got.nodes > 0 {
			h2 := &held{s2, graph.NewVersioned(g)}
			if err := h2.apply(graph.AddEdge(0, 0, "self")); err != nil {
				t.Fatalf("trial %d: recovered store not writable: %v", trial, err)
			}
		}
		s2.Close()
	}
}

// A corrupt manifest (not JSON, bad snapshot name, path escape) must be a
// clean error, never a panic or empty-store fallback that would shadow
// real data.
func TestManifestCorruption(t *testing.T) {
	build := func() string {
		dir := t.TempDir()
		h := openT(t, dir)
		h.mustApply(t, graph.AddNode("A"))
		h.Close()
		return dir
	}
	for _, bad := range []string{
		"not json",
		`{"snapshot": "", "seq": 0}`,
		`{"snapshot": "../../etc/passwd", "seq": 0}`,
		`{"snapshot": "missing.qg", "seq": 0}`,
	} {
		dir := build()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); err == nil {
			t.Errorf("manifest %q accepted", bad)
		}
	}
}
