package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// FuzzOpen writes a directory from a snapshot, a journal and the sequence
// number CURRENT gives the snapshot, and opens it. Open must not panic.
// It must refuse exactly what replayReference refuses, and otherwise
// return the graph replayReference builds, byte for byte; a reopen must
// then find the same graph and no torn tail, so any repair was durable.
// The seeds are valid directories and the corruption tests' torn and
// flipped journals; the fuzzer mutates the snapshot and the journal alike.
func FuzzOpen(f *testing.F) {
	history := []graph.Mutation{
		graph.AddNode("A"), graph.AddNode("B"), graph.AddNode("C"),
		graph.AddEdge(0, 1, "x"), graph.AddEdge(1, 2, "y"), graph.AddEdge(2, 0, "z"),
		graph.RemoveEdge(0, 1, "x"), graph.AddNode("D"), graph.AddEdge(3, 0, "w"),
		graph.Mutation{Op: graph.MutRemoveNode, From: 2},
	}
	empty := new(bytes.Buffer)
	g := graph.New(0)
	g.Finalize()
	if err := g.WriteBinary(empty); err != nil {
		f.Fatal(err)
	}
	journal := bytes.Clone(journalMagic)
	for i, m := range history {
		journal = encodeRecord(journal, uint64(i+1), m)
	}
	torn := journal[:len(journal)-3]
	flipped := bytes.Clone(journal)
	flipped[len(flipped)-1] ^= 0xff
	for _, j := range [][]byte{journal, torn, flipped, journalMagic} {
		f.Add(empty.Bytes(), j, uint64(0))
	}
	f.Add(empty.Bytes(), journal, uint64(3)) // the first three records folded

	src := filepath.Join("..", "ha", "testdata", "journal-ff36622")
	snap, err := os.ReadFile(filepath.Join(src, "snapshot-0.qg"))
	if err != nil {
		f.Fatal(err)
	}
	parent, err := os.ReadFile(filepath.Join(src, "journal.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap, parent, uint64(0))
	f.Add(snap, parent[:len(parent)-1], uint64(0))

	f.Fuzz(func(t *testing.T, snapshot, journal []byte, seq uint64) {
		dir := t.TempDir()
		name := fmt.Sprintf("snapshot-%d.qg", seq)
		man, _ := json.Marshal(manifest{Snapshot: name, Seq: seq})
		for file, b := range map[string][]byte{name: snapshot, journalName: journal, manifestName: man} {
			if err := os.WriteFile(filepath.Join(dir, file), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, ok := replayReference(snapshot, journal, seq)
		s, got, err := Open(dir, Options{})
		if !ok {
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a directory the reference replay refuses")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open refused a directory the reference replays: %v", err)
		}
		s.Close()
		if !bytes.Equal(binaryOf(t, got), binaryOf(t, want)) {
			t.Fatal("Open's graph differs from the reference replay")
		}
		s, again, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s.Close()
		if s.Recovery().TornTail || !bytes.Equal(binaryOf(t, again), binaryOf(t, want)) {
			t.Fatalf("reopen found %+v and a different graph: the repair was not durable", s.Recovery())
		}
	})
}

// replayReference is what Open must return, computed apart from the
// store's reader: the snapshot decoded, then the journal's records read up
// to the first short or CRC-failing one, each record past seq applied in
// order through its own graph.Versioned. ok is false where Open must
// refuse: a bad snapshot or magic, a malformed payload under a good CRC,
// a sequence gap, or a record the graph refuses.
func replayReference(snapshot, journal []byte, seq uint64) (g *graph.Graph, ok bool) {
	g, err := graph.ReadBinary(bytes.NewReader(snapshot), math.MaxInt)
	if err != nil || !bytes.HasPrefix(journal, journalMagic) {
		return nil, false
	}
	vg := graph.NewVersioned(g)
	next := seq + 1
	for rest := journal[len(journalMagic):]; len(rest) >= 8; {
		n := uint64(binary.LittleEndian.Uint32(rest))
		if n == 0 || n > maxRecordSize || n > uint64(len(rest)-8) {
			break
		}
		payload := rest[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:]) {
			break
		}
		rest = rest[8+n:]
		rs, m, err := decodePayload(payload)
		if err != nil {
			return nil, false
		}
		if rs <= seq {
			continue
		}
		if rs != next {
			return nil, false
		}
		if _, _, err := vg.Apply([]graph.Mutation{m}); err != nil {
			return nil, false
		}
		next++
	}
	return vg.Graph(), true
}

func binaryOf(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := g.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
