package ha

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestRecoverParentWrittenJournal: testdata/journal-ff36622 is a journal
// directory as the build at ff36622 — the last whose store had a mutation
// type of its own — left it: SetGraph of a 6-node graph, three watches (one
// bare, two of named tenants), then two AppendBatch calls holding all four
// ops, labels with multi-byte runes included. graph.want.bin is that
// build's Graph().WriteBinary after the appends. OpenJournal must read the
// same graph bytes and watches back, from the v2 manifest that build wrote
// and from the flat form of the builds before the tenant layer alike, and
// leave the directory as it found it.
func TestRecoverParentWrittenJournal(t *testing.T) {
	const src = "testdata/journal-ff36622"
	wantGraph, err := os.ReadFile(filepath.Join(src, "graph.want.bin"))
	if err != nil {
		t.Fatal(err)
	}
	wantWatches := map[string]string{
		"legacy":      "qgp\nn xo person *\nn z product\ne xo z like\n",
		"alice\x1fw1": "qgp\nn xo person *\nn z person\ne xo z follow >=2\n",
		"bob\x1fw1":   "qgp\nn xo person *\nn z person\ne xo z follow\n",
	}
	for _, manifest := range []string{"watches.json", "watches.flat.json"} {
		t.Run(manifest, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string][]byte{}
			for _, name := range []string{"CURRENT", "snapshot-0.qg", "journal.log", watchesName} {
				from := name
				if name == watchesName {
					from = manifest
				}
				b, err := os.ReadFile(filepath.Join(src, from))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
				files[name] = b
			}
			j, err := OpenJournal(dir, JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if info := j.Recovery(); info.Applied != 7 || info.TornTail {
				t.Fatalf("recovery %+v, want the tail's 7 records applied", info)
			}
			var got bytes.Buffer
			if err := j.Graph().WriteBinary(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), wantGraph) {
				t.Fatalf("recovered graph differs from the one the writing build held:\n got %x\nwant %x", got.Bytes(), wantGraph)
			}
			if w := j.Watches(); !reflect.DeepEqual(w, wantWatches) {
				t.Fatalf("recovered watches %q, want %q", w, wantWatches)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(files) {
				t.Fatalf("recovery left %d files, found %d", len(entries), len(files))
			}
			for name, want := range files {
				if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(b, want) {
					t.Fatalf("recovery rewrote %s (err %v)", name, err)
				}
			}
		})
	}
}
