package ha

import (
	"reflect"
	"testing"

	"repro/internal/gen"
)

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
