package ha

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

// startDurableFrontend wires a journal-backed front end the way
// cmd/qgpcluster does: one durable session shared by every connection,
// workers and replicas from a spawn pool, fragmented at radius d.
func startDurableFrontend(t *testing.T, j *Journal, d int) (*cluster.Frontend, string) {
	t.Helper()
	pool := NewSpawnPool(3, server.Config{})
	durable := &cluster.DurableState{Journal: j}
	if j.HasState() {
		durable.Graph = j.Graph()
		durable.Watches = j.Watches()
	}
	fe := cluster.NewFrontend(cluster.FrontendConfig{
		Cluster:    cluster.Config{D: d, Replicas: 2, Pool: pool},
		NewWorkers: func() ([]cluster.Transport, error) { return pool.Primaries(3) },
		Durable:    durable,
		Logf:       func(string, ...interface{}) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(ln)
	return fe, ln.Addr().String()
}

func shutdownFrontend(t *testing.T, fe *cluster.Frontend) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := fe.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDurableFrontendRestart: a journal-backed qgpcluster front end is
// stopped and restarted over the same directory; the new process serves
// the recovered graph and watches without any gen/load, and connections
// share the durable session.
func TestDurableFrontendRestart(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fe, addr := startDurableFrontend(t, j, 2)

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// A named tenant session: its watches survive the disconnect (an
	// ephemeral connection-scoped session's would be evicted with it)
	// and so reach the journal's restart recovery.
	if _, err := c1.Session("alice"); err != nil {
		t.Fatalf("session: %v", err)
	}
	if _, _, err := c1.Gen("social", 150, 6); err != nil {
		t.Fatalf("gen: %v", err)
	}
	pattern := chaosPatterns[0]
	if _, err := c1.Watch("w", pattern); err != nil {
		t.Fatalf("watch: %v", err)
	}
	if _, _, err := c1.Update(
		server.UpdateSpec{Op: "addEdge", From: 2, To: 3, Label: "follow"},
		server.UpdateSpec{Op: "removeNode", From: 7},
	); err != nil {
		t.Fatalf("update: %v", err)
	}

	// A second connection shares the durable session: it can query
	// without running gen first.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := c2.Match(pattern, nil)
	if err != nil {
		t.Fatalf("match on second connection: %v", err)
	}
	c1.Close()
	c2.Close()
	shutdownFrontend(t, fe)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory.
	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	fe2, addr2 := startDurableFrontend(t, j2, 2)
	defer shutdownFrontend(t, fe2)

	c3, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	// Re-attach to the recovered named session: its watch namespace was
	// rebuilt from the journal's tenant-grouped manifest.
	if _, err := c3.Session("alice"); err != nil {
		t.Fatalf("session after restart: %v", err)
	}
	post, err := c3.Match(pattern, nil)
	if err != nil {
		t.Fatalf("match after restart (no gen): %v", err)
	}
	if !reflect.DeepEqual(post.Matches, pre.Matches) {
		t.Fatalf("recovered answers %v != pre-restart %v", post.Matches, pre.Matches)
	}
	// The recovered watch is live: re-registering it collides.
	if _, err := c3.Watch("w", pattern); err == nil {
		t.Fatal("recovered watch namespace lost: re-registering 'w' succeeded")
	}
	// And it still maintains deltas incrementally.
	res, err := c3.UpdateWithDeltas(server.UpdateSpec{Op: "removeNode", From: post.Matches[0]})
	if err != nil {
		t.Fatalf("update after restart: %v", err)
	}
	found := false
	for _, d := range res.Deltas {
		if d.Watch != "w" {
			continue
		}
		for _, v := range d.Removed {
			if v == post.Matches[0] {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("removing an answer node did not surface in the recovered watch's delta: %+v", res.Deltas)
	}
}

// dialSession connects to a front end and attaches the named session.
func dialSession(t *testing.T, addr, session string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Session(session); err != nil {
		t.Fatalf("session %q: %v", session, err)
	}
	return c
}

// TestDurableFrontendFailedRecoveryKeepsWatches: a recovery that fails
// half-way (here: restarted with d=1 over a journal holding a 2-hop watch)
// must leave the journal as it found it, so the next restart, configured
// right, still recovers every watch.
func TestDurableFrontendFailedRecoveryKeepsWatches(t *testing.T) {
	dir := t.TempDir()
	patterns := map[string]string{
		"a": "qgp\nn xo person *\nn z person\ne xo z follow >=1\n",
		"b": "qgp\nn xo person *\nn z person\nn y person\ne xo z follow >=1\ne z y follow >=1\n",
		"c": chaosPatterns[0],
	}
	names := []string{"a", "b", "c"}

	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fe, addr := startDurableFrontend(t, j, 2)
	c1 := dialSession(t, addr, "alice")
	if _, _, err := c1.Gen("social", 150, 6); err != nil {
		t.Fatalf("gen: %v", err)
	}
	for _, name := range names {
		if _, err := c1.Watch(name, patterns[name]); err != nil {
			t.Fatalf("watch %q: %v", name, err)
		}
	}
	c1.Close()
	shutdownFrontend(t, fe)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart misconfigured: watch "b" needs 2 hops, the cluster keeps 1.
	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fe2, addr2 := startDurableFrontend(t, j2, 1)
	c2 := dialSession(t, addr2, "alice")
	if _, err := c2.Match(patterns["a"], nil); err == nil {
		t.Fatal("match served although recovery cannot register a 2-hop watch at d=1")
	}
	c2.Close()
	shutdownFrontend(t, fe2)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// The failed recovery cost nothing durable.
	j3, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := j3.Watches(); len(got) != 3 {
		t.Fatalf("journal holds %d of 3 watches after a failed recovery: %q", len(got), got)
	}
	fe3, addr3 := startDurableFrontend(t, j3, 2)
	defer shutdownFrontend(t, fe3)
	c3 := dialSession(t, addr3, "alice")
	// The restarted process's very first request is a colliding watch:
	// recovery must have restored alice's table before it is consulted,
	// or the failed registration's rollback would drop "a" from it.
	for _, name := range names {
		if _, err := c3.Watch(name, patterns[name]); err == nil {
			t.Fatalf("recovered watch namespace lost: re-registering %q succeeded", name)
		}
	}
	// A node answering all three patterns: removing it must surface in
	// every recovered watch's delta.
	var common []int64
	for i, name := range names {
		res, err := c3.Match(patterns[name], nil)
		if err != nil {
			t.Fatalf("match %q after restart: %v", name, err)
		}
		if i == 0 {
			common = res.Matches
			continue
		}
		common = slices.DeleteFunc(common, func(v int64) bool { return !slices.Contains(res.Matches, v) })
	}
	if len(common) == 0 {
		t.Fatal("no node answers all three patterns; pick another seed")
	}
	res, err := c3.UpdateWithDeltas(server.UpdateSpec{Op: "removeNode", From: common[0]})
	if err != nil {
		t.Fatalf("update after restart: %v", err)
	}
	removed := make(map[string]bool)
	for _, d := range res.Deltas {
		if slices.Contains(d.Removed, common[0]) {
			removed[d.Watch] = true
		}
	}
	for _, name := range names {
		if !removed[name] {
			t.Errorf("recovered watch %q did not report the removed answer node %d: %+v", name, common[0], res.Deltas)
		}
	}
}

// dirListing renders a directory as sorted "name size sha256" lines.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s %d %x", e.Name(), len(b), sha256.Sum256(b)))
	}
	return out
}

// TestDurableFrontendRestartWritesNothing: a restart reads the journal
// directory. Until the recovered front end accepts a batch or a watch
// change, every file in it is byte-identical to what the stopped process
// left. The journaled update batch matters: with an empty journal.log a
// re-import of the recovered graph would happen to reproduce the same
// bytes.
func TestDurableFrontendRestartWritesNothing(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fe, addr := startDurableFrontend(t, j, 2)
	c1 := dialSession(t, addr, "alice")
	if _, _, err := c1.Gen("social", 150, 6); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if _, err := c1.Watch("w", chaosPatterns[0]); err != nil {
		t.Fatalf("watch: %v", err)
	}
	if _, _, err := c1.Update(
		server.UpdateSpec{Op: "addEdge", From: 2, To: 3, Label: "follow"},
		server.UpdateSpec{Op: "removeNode", From: 7},
	); err != nil {
		t.Fatalf("update: %v", err)
	}
	c1.Close()
	shutdownFrontend(t, fe)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)

	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	fe2, addr2 := startDurableFrontend(t, j2, 2)
	defer shutdownFrontend(t, fe2)
	c2 := dialSession(t, addr2, "alice")
	if _, err := c2.Match(chaosPatterns[0], nil); err != nil {
		t.Fatalf("match after restart: %v", err)
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("restart rewrote the journal directory:\nbefore: %q\nafter:  %q", before, after)
	}
}
