package tenant

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
)

func TestNameEncoding(t *testing.T) {
	cases := []struct{ tenant, watch string }{
		{"alice", "w"},
		{"s-12", "orders.books"},
		{"a b", "c d"},
	}
	for _, c := range cases {
		tn, w := SplitName(GlobalName(c.tenant, c.watch))
		if tn != c.tenant || w != c.watch {
			t.Fatalf("round trip (%q,%q) -> (%q,%q)", c.tenant, c.watch, tn, w)
		}
	}
	// Bare legacy names decode as the "" tenant.
	if tn, w := SplitName("legacy"); tn != "" || w != "legacy" {
		t.Fatalf("legacy split: (%q,%q)", tn, w)
	}
	// A watch containing what looks like another encoding still splits at
	// the FIRST separator, so tenant names can never be forged by watches.
	tn, w := SplitName(GlobalName("a", "b\x1fc"))
	if tn != "a" || w != "b\x1fc" {
		t.Fatalf("nested separator split: (%q,%q)", tn, w)
	}
}

func TestNameValidation(t *testing.T) {
	m := NewManager(Config{}, &fakeRegistrar{})
	// "" is not in this list: an empty Attach name means "generate one".
	for _, bad := range []string{"a\x1fb", "a\nb", "ctl\x01", string(make([]byte, 129))} {
		if _, err := m.Attach(bad); err == nil {
			t.Fatalf("Attach(%q) accepted an invalid name", bad)
		}
	}
	name, err := m.Attach("ok-name.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Watch(name, "bad\x1fwatch", testPattern(t)); err == nil {
		t.Fatal("Watch accepted a name containing the separator")
	}
}

// fakeRegistrar records global-name registrations without a cluster.
type fakeRegistrar struct {
	mu        sync.Mutex
	watches   map[string]string
	failWatch error
	unwatched []string
}

func (r *fakeRegistrar) Watch(name string, q *core.Pattern) ([]graph.NodeID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failWatch != nil {
		return nil, r.failWatch
	}
	if r.watches == nil {
		r.watches = make(map[string]string)
	}
	if _, dup := r.watches[name]; dup {
		return nil, fmt.Errorf("duplicate global watch %q", name)
	}
	r.watches[name] = q.String()
	return []graph.NodeID{1, 2}, nil
}

func (r *fakeRegistrar) Unwatch(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.watches, name)
	r.unwatched = append(r.unwatched, name)
	return nil
}

func (r *fakeRegistrar) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.watches))
	for n := range r.watches {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func testPattern(t *testing.T) *core.Pattern {
	t.Helper()
	q, err := core.Parse("qgp\nn xo person *\nn z person\ne xo z follow >=2\n")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNamespacesAreDisjoint(t *testing.T) {
	reg := &fakeRegistrar{}
	m := NewManager(Config{}, reg)
	for _, tn := range []string{"alice", "bob"} {
		if _, err := m.Attach(tn); err != nil {
			t.Fatal(err)
		}
		// Both tenants use the SAME local watch name; the encoding keeps
		// them apart on the shared coordinator.
		if _, err := m.Watch(tn, "w", testPattern(t)); err != nil {
			t.Fatalf("%s: %v", tn, err)
		}
	}
	want := []string{GlobalName("alice", "w"), GlobalName("bob", "w")}
	if got := reg.names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registered globals %q, want %q", got, want)
	}
	if _, err := m.Watch("alice", "w", testPattern(t)); err == nil {
		t.Fatal("duplicate local watch accepted")
	}
}

func TestQuotas(t *testing.T) {
	m := NewManager(Config{MaxTenants: 2, MaxWatches: 1}, &fakeRegistrar{})
	if _, err := m.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach("c"); err == nil {
		t.Fatal("third tenant accepted past MaxTenants=2")
	}
	// Re-attaching an existing session is not a new tenant.
	if _, err := m.Attach("a"); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if _, err := m.Watch("a", "w1", testPattern(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Watch("a", "w2", testPattern(t)); err == nil {
		t.Fatal("second watch accepted past MaxWatches=1")
	}
	// Evicting frees the tenant slot.
	m.Evict("b")
	if _, err := m.Attach("c"); err != nil {
		t.Fatalf("attach after evict: %v", err)
	}
}

func TestDeltaRoutingAndCoalescing(t *testing.T) {
	reg := &fakeRegistrar{}
	m := NewManager(Config{}, reg)
	for _, tn := range []string{"writer", "reader"} {
		if _, err := m.Attach(tn); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Watch(tn, "w", testPattern(t)); err != nil {
			t.Fatal(err)
		}
	}
	deltas := []server.WatchDelta{
		{Watch: GlobalName("writer", "w"), Added: []int64{1}, Affected: 2},
		{Watch: GlobalName("reader", "w"), Added: []int64{5, 6}, Removed: []int64{7}, Affected: 3},
		{Watch: "orphan", Added: []int64{9}}, // unknown tenant: dropped
	}
	own := m.RecordDeltas("writer", deltas)
	if len(own) != 1 || own[0].Watch != "w" || !reflect.DeepEqual(own[0].Added, server.IDList{1}) {
		t.Fatalf("writer's own deltas: %+v", own)
	}
	// The writer's own deltas are NOT also queued.
	if ds, _ := m.Drain("writer"); len(ds) != 0 {
		t.Fatalf("writer inbox not empty: %+v", ds)
	}

	// A second batch nets out against the first: 5 removed again, 7 added
	// back — both cancel; 8 newly added survives.
	m.RecordDeltas("writer", []server.WatchDelta{
		{Watch: GlobalName("reader", "w"), Added: []int64{7, 8}, Removed: []int64{5}, Affected: 1},
	})
	ds, err := m.Drain("reader")
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("reader drain: %+v", ds)
	}
	d := ds[0]
	if d.Watch != "w" || !reflect.DeepEqual(d.Added, server.IDList{6, 8}) || len(d.Removed) != 0 || d.Affected != 4 {
		t.Fatalf("coalesced delta wrong: %+v", d)
	}
	// Drained means gone.
	if ds, _ := m.Drain("reader"); len(ds) != 0 {
		t.Fatalf("second drain not empty: %+v", ds)
	}

	// The reader writes while the writer's older delta waits in its inbox:
	// its reply folds its own delta in after the waiting one and empties
	// the inbox, so a client folding in arrival order keeps 6 an answer.
	m.RecordDeltas("writer", []server.WatchDelta{{Watch: GlobalName("reader", "w"), Removed: []int64{6}, Affected: 1}})
	own = m.RecordDeltas("reader", []server.WatchDelta{{Watch: GlobalName("reader", "w"), Added: []int64{6}, Affected: 2}})
	if len(own) != 1 || len(own[0].Added) != 0 || len(own[0].Removed) != 0 || own[0].Affected != 3 {
		t.Fatalf("reader's own delta after a waiting one: %+v, want -6 then +6, netted out", own)
	}
	if ds, _ := m.Drain("reader"); len(ds) != 0 {
		t.Fatalf("reader inbox kept the folded delta: %+v", ds)
	}
}

func TestNoteCounts(t *testing.T) {
	m := NewManager(Config{}, &fakeRegistrar{})
	if _, err := m.Attach("a"); err != nil {
		t.Fatal(err)
	}
	m.NoteWrite("a", 7)
	m.NoteWrite("a", 3)
	m.NoteRead("a")
	m.NoteRead("nobody") // an evicted tenant's read is not counted anywhere
	infos := m.List()
	if len(infos) != 1 || infos[0].Writes != 2 || infos[0].Reads != 1 {
		t.Fatalf("List: %+v", infos)
	}
}

func TestEvictUnregistersWatches(t *testing.T) {
	reg := &fakeRegistrar{}
	m := NewManager(Config{}, reg)
	if _, err := m.Attach("a"); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"w1", "w2"} {
		if _, err := m.Watch("a", w, testPattern(t)); err != nil {
			t.Fatal(err)
		}
	}
	m.Evict("a")
	if got := reg.names(); len(got) != 0 {
		t.Fatalf("globals still registered after evict: %q", got)
	}
	want := []string{GlobalName("a", "w1"), GlobalName("a", "w2")}
	sort.Strings(reg.unwatched)
	if !reflect.DeepEqual(reg.unwatched, want) {
		t.Fatalf("unwatched %q, want %q", reg.unwatched, want)
	}
	if _, err := m.Watch("a", "w3", testPattern(t)); err == nil {
		t.Fatal("watch on evicted session accepted")
	}
}

func TestEphemeralReleaseEvicts(t *testing.T) {
	reg := &fakeRegistrar{}
	m := NewManager(Config{}, reg)
	name, err := m.Attach("")
	if err != nil {
		t.Fatal(err)
	}
	if name == "" {
		t.Fatal("no generated name")
	}
	if _, err := m.Watch(name, "w", testPattern(t)); err != nil {
		t.Fatal(err)
	}
	// A second connection holds the same session: the first release must
	// not evict.
	if _, err := m.Attach(name); err != nil {
		t.Fatal(err)
	}
	m.Release(name, true)
	if len(reg.names()) != 1 {
		t.Fatal("evicted while still attached")
	}
	m.Release(name, true)
	if len(reg.names()) != 0 {
		t.Fatal("last release of an ephemeral session did not evict")
	}
}

// TestEvictSparesReattachedSession: the last-ref Release and the idle
// sweeper decide to evict outside the manager lock; a concurrent Attach
// to the same name that wins the lock in that window must keep its
// freshly acquired session. The interleaving is simulated directly:
// refs drops to zero (the releasing connection's decrement), a second
// connection attaches, then the deferred conditional eviction runs.
func TestEvictSparesReattachedSession(t *testing.T) {
	reg := &fakeRegistrar{}
	m := NewManager(Config{}, reg)
	name, err := m.Attach("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Watch(name, "w", testPattern(t)); err != nil {
		t.Fatal(err)
	}

	m.mu.Lock()
	m.tenants[name].refs = 0 // conn1's Release decremented the last ref
	m.mu.Unlock()
	if _, err := m.Attach(name); err != nil { // conn2 wins the lock
		t.Fatal(err)
	}
	if m.evict(name, true) { // conn1's deferred eviction stands down
		t.Fatal("conditional eviction removed a re-attached session")
	}
	if got := m.Watches(name); !reflect.DeepEqual(got, []string{"w"}) {
		t.Fatalf("re-attached session lost its watches: %v", got)
	}
	if len(reg.unwatched) != 0 {
		t.Fatalf("eviction unregistered %v despite the re-attach", reg.unwatched)
	}
	// The explicit Evict (endsession) is unconditional, as before.
	m.Evict(name)
	if got := m.Watches(name); got != nil {
		t.Fatalf("explicit Evict left the session: %v", got)
	}
}

func TestIdleEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	reg := &fakeRegistrar{}
	m := NewManager(Config{IdleTimeout: time.Minute, Now: clock}, reg)
	if _, err := m.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach("b"); err != nil {
		t.Fatal(err)
	}
	// "a" disconnects; "b" stays attached.
	m.Release("a", false)
	now = now.Add(2 * time.Minute)
	evicted := m.EvictIdle()
	if !reflect.DeepEqual(evicted, []string{"a"}) {
		t.Fatalf("evicted %q, want [a]", evicted)
	}
	// An attached session never idles out, however stale.
	if got := m.EvictIdle(); len(got) != 0 {
		t.Fatalf("attached session evicted: %q", got)
	}
	infos := m.List()
	if len(infos) != 1 || infos[0].Name != "b" {
		t.Fatalf("List after idle eviction: %+v", infos)
	}
}

func TestRestoreAndReset(t *testing.T) {
	reg := &fakeRegistrar{}
	m := NewManager(Config{}, reg)
	m.Restore(map[string]string{
		GlobalName("alice", "w"): "p1",
		"legacy":                 "p2", // pre-tenant journal watches: no session
	})
	infos := m.List()
	if len(infos) != 1 || infos[0].Name != "alice" || infos[0].Watches != 1 {
		t.Fatalf("restored sessions: %+v", infos)
	}
	if ws := m.Watches("alice"); !reflect.DeepEqual(ws, []string{"w"}) {
		t.Fatalf("restored watches: %q", ws)
	}
	// Restored sessions have no connections: they idle-evict eventually,
	// but survive a Reset (graph rebuild) with cleared namespaces.
	m.Reset()
	if ws := m.Watches("alice"); len(ws) != 0 {
		t.Fatalf("watch table survived reset: %q", ws)
	}
}

func TestWatchFailureRollsBackSlot(t *testing.T) {
	reg := &fakeRegistrar{failWatch: fmt.Errorf("cluster down")}
	m := NewManager(Config{MaxWatches: 1}, reg)
	if _, err := m.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Watch("a", "w", testPattern(t)); err == nil {
		t.Fatal("watch succeeded against a failing registrar")
	}
	// The reserved slot was released: the quota is not consumed.
	reg.failWatch = nil
	if _, err := m.Watch("a", "w", testPattern(t)); err != nil {
		t.Fatalf("watch after registrar recovery: %v", err)
	}
}
