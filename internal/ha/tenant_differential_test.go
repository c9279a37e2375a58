package ha

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/tenant"
)

// TestDifferentialTwoTenantFailover extends the differential harness to
// the tenant layer: two tenants multiplex private watch namespaces (the
// SAME local watch names, different patterns) over one shared coordinator
// while a seeded update stream runs. Midway a primary is killed abruptly
// (mid-stream failover), and later one tenant's session is evicted
// mid-stream. After every round, each tenant's view — the writer's own
// deltas from RecordDeltas plus the other's Drain — must be exactly the
// per-tenant single-process dynamic.Matcher oracle's delta, and the
// accumulated answer sets must track the oracles.
func TestDifferentialTwoTenantFailover(t *testing.T) {
	seed := int64(4242)
	r := rand.New(rand.NewSource(seed))
	g := gen.Social(gen.DefaultSocial(150, seed))

	pool := NewSpawnPool(4, server.Config{})
	ts, err := pool.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(g, ts, cluster.Config{D: 2, Replicas: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ref := c.Graph()

	// The coordinator itself is the registrar: tenant-scoped global names
	// land directly in its shared watch table.
	mgr := tenant.NewManager(tenant.Config{}, c)
	for _, tn := range []string{"alice", "bob"} {
		if got, err := mgr.Attach(tn); err != nil || got != tn {
			t.Fatalf("attach %s: %q, %v", tn, got, err)
		}
	}

	// Deliberately colliding local names: alice/w0 and bob/w0 are
	// DIFFERENT patterns, so any namespace mixup shows up as a delta
	// mismatch against the per-tenant oracles.
	watches := []struct {
		tenant, watch, dsl string
	}{
		{"alice", "w0", chaosPatterns[0]},
		{"alice", "w1", chaosPatterns[1]},
		{"bob", "w0", chaosPatterns[1]},
		{"bob", "w1", chaosPatterns[0]},
	}
	key := func(tn, w string) string { return tn + "/" + w }
	oracles := make(map[string]*dynamic.Matcher)
	accumulated := make(map[string]map[graph.NodeID]bool)
	for _, ws := range watches {
		q := mustParse(t, ws.dsl)
		got, err := mgr.Watch(ws.tenant, ws.watch, q)
		if err != nil {
			t.Fatalf("watch %s/%s: %v", ws.tenant, ws.watch, err)
		}
		m, err := dynamic.NewMatcher(ref, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m.Answers()) {
			t.Fatalf("watch %s/%s initial answers %v != oracle %v", ws.tenant, ws.watch, got, m.Answers())
		}
		oracles[key(ws.tenant, ws.watch)] = m
		acc := make(map[graph.NodeID]bool)
		for _, v := range got {
			acc[v] = true
		}
		accumulated[key(ws.tenant, ws.watch)] = acc
	}

	alive := []string{"alice", "bob"}
	n := int64(ref.NumNodes())
	for round := 0; round < 12; round++ {
		if round == 5 {
			// Abrupt primary death with both tenants watching: the next
			// batch fails over mid-stream and every tenant's deltas must
			// stay exact across the promotion.
			ts[r.Intn(2)].Close()
		}
		if round == 9 {
			// Lifecycle under load: bob's session ends mid-stream. His
			// watches must leave the shared coordinator; alice's survive
			// untouched.
			mgr.Evict("bob")
			for _, name := range c.Watches() {
				if tn, _ := tenant.SplitName(name); tn == "bob" {
					t.Fatalf("evicted tenant's watch %q still registered", name)
				}
			}
			delete(oracles, key("bob", "w0"))
			delete(oracles, key("bob", "w1"))
			alive = []string{"alice"}
		}
		writer := alive[round%len(alive)]
		batch := randomBatch(r, &n)

		res, err := c.Update(batch)
		if err != nil {
			t.Fatalf("round %d: Update: %v", round, err)
		}
		ref = applySpecs(t, ref, batch)
		mgr.NoteWrite(writer, res.Version)

		// Route the merged deltas: the writer gets its own back renamed,
		// everyone else drains their inbox.
		perTenant := map[string][]server.WatchDelta{
			writer: mgr.RecordDeltas(writer, res.Deltas),
		}
		for _, tn := range alive {
			if tn == writer {
				continue
			}
			drained, err := mgr.Drain(tn)
			if err != nil {
				t.Fatalf("round %d: drain %s: %v", round, tn, err)
			}
			perTenant[tn] = drained
		}

		ups, err := server.ToUpdates(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, ws := range watches {
			m, ok := oracles[key(ws.tenant, ws.watch)]
			if !ok {
				continue // evicted
			}
			want, err := m.Apply(ups)
			if err != nil {
				t.Fatal(err)
			}
			var got server.WatchDelta
			for _, d := range perTenant[ws.tenant] {
				if d.Watch == ws.watch {
					got = d
				}
			}
			if !sameIDs(got.Added, want.Added) || !sameIDs(got.Removed, want.Removed) {
				t.Fatalf("round %d %s/%s: tenant delta +%v -%v != oracle +%v -%v",
					round, ws.tenant, ws.watch, got.Added, got.Removed, want.Added, want.Removed)
			}
			acc := accumulated[key(ws.tenant, ws.watch)]
			for _, v := range got.Added {
				acc[graph.NodeID(v)] = true
			}
			for _, v := range got.Removed {
				delete(acc, graph.NodeID(v))
			}
			if !reflect.DeepEqual(sortedNodeSet(acc), m.Answers()) {
				t.Fatalf("round %d %s/%s: accumulated answers %v != oracle %v",
					round, ws.tenant, ws.watch, sortedNodeSet(acc), m.Answers())
			}
		}
	}

	// Read-your-writes across the whole stream: a match, served by
	// whichever copy routing picks, agrees with the oracle graph.
	for _, ws := range watches {
		if ws.tenant != "alice" {
			continue
		}
		mgr.NoteRead("alice")
		q := mustParse(t, ws.dsl)
		got, err := c.Match(q)
		if err != nil {
			t.Fatalf("final match: %v", err)
		}
		want := oracleAnswers(t, ref, q)
		if !reflect.DeepEqual(emptyNotNil(got.Matches), emptyNotNil(want)) {
			t.Errorf("final %s/%s: cluster %v != oracle %v", ws.tenant, ws.watch, got.Matches, want)
		}
	}
	infos := mgr.List()
	if len(infos) != 1 || infos[0].Name != "alice" || infos[0].Watches != 2 {
		t.Fatalf("surviving session list: %+v", infos)
	}
}
