package cluster

import (
	"context"
	"net"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// startSharedFrontend starts a front end, counting how many worker sets
// (i.e. fragmentations) it builds.
func startSharedFrontend(t *testing.T, builds *atomic.Int64) (string, *Frontend) {
	t.Helper()
	fe := NewFrontend(FrontendConfig{
		Cluster: Config{D: 2},
		NewWorkers: func() ([]Transport, error) {
			builds.Add(1)
			return InProcessN(2, server.Config{MaxWatches: -1}), nil
		},
		Logf: func(string, ...interface{}) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fe.Shutdown(ctx)
	})
	return ln.Addr().String(), fe
}

func dialFrontend(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestFrontendSharedSession: the regression for the old
// cluster-per-connection default — two connections must see ONE
// fragmentation. The second client queries the graph the first one
// loaded, and no second worker set is ever built.
func TestFrontendSharedSession(t *testing.T) {
	var builds atomic.Int64
	addr, _ := startSharedFrontend(t, &builds)
	c1 := dialFrontend(t, addr)
	c2 := dialFrontend(t, addr)

	if _, _, err := c1.Gen("social", 200, 9); err != nil {
		t.Fatalf("gen: %v", err)
	}
	r1, err := c1.Match(testPatterns[0], nil)
	if err != nil {
		t.Fatalf("match c1: %v", err)
	}
	// c2 never ran gen: in the shared model it reads the same cluster.
	r2, err := c2.Match(testPatterns[0], nil)
	if err != nil {
		t.Fatalf("match on second connection: %v", err)
	}
	if !reflect.DeepEqual(r1.Matches, r2.Matches) {
		t.Fatalf("connections disagree: %v vs %v", r1.Matches, r2.Matches)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("two connections built %d fragmentations, want 1", n)
	}
}

// TestFrontendTenantNamespaces drives the tenant layer over the wire:
// private watch names, writer-only update deltas, cross-tenant delta
// drains, session listing and eviction.
func TestFrontendTenantNamespaces(t *testing.T) {
	var builds atomic.Int64
	addr, _ := startSharedFrontend(t, &builds)
	alice := dialFrontend(t, addr)
	bob := dialFrontend(t, addr)

	if got, err := alice.Session("alice"); err != nil || got != "alice" {
		t.Fatalf("session: %q, %v", got, err)
	}
	if got, err := bob.Session("bob"); err != nil || got != "bob" {
		t.Fatalf("session: %q, %v", got, err)
	}
	if _, _, err := alice.Gen("social", 200, 9); err != nil {
		t.Fatalf("gen: %v", err)
	}

	// Both tenants watch under the SAME name; namespaces keep them apart.
	wa, err := alice.Watch("w", testPatterns[0])
	if err != nil {
		t.Fatalf("alice watch: %v", err)
	}
	if _, err := bob.Watch("w", testPatterns[0]); err != nil {
		t.Fatalf("bob watch (same local name): %v", err)
	}

	// Alice removes one of her answers. Her update response carries only
	// her own namespace's delta, under the local name.
	victim := wa.Matches[0]
	res, err := alice.UpdateWithDeltas(server.UpdateSpec{Op: "removeNode", From: victim})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if len(res.Deltas) != 1 || res.Deltas[0].Watch != "w" {
		t.Fatalf("writer deltas: %+v", res.Deltas)
	}
	foundRemoved := false
	for _, v := range res.Deltas[0].Removed {
		if v == victim {
			foundRemoved = true
		}
	}
	if !foundRemoved {
		t.Fatalf("alice's own delta misses the removed answer: %+v", res.Deltas)
	}

	// Bob picks his namespace's delta up with the deltas command.
	bd, err := bob.Deltas()
	if err != nil {
		t.Fatalf("bob deltas: %v", err)
	}
	if len(bd) != 1 || bd[0].Watch != "w" {
		t.Fatalf("bob's drained deltas: %+v", bd)
	}
	// Drained once, gone.
	if bd, _ := bob.Deltas(); len(bd) != 0 {
		t.Fatalf("second drain not empty: %+v", bd)
	}

	infos, err := alice.Sessions()
	if err != nil {
		t.Fatalf("sessions: %v", err)
	}
	if len(infos) != 2 || infos[0].Name != "alice" || infos[1].Name != "bob" {
		t.Fatalf("session list: %+v", infos)
	}
	if infos[0].Watches != 1 || infos[0].Writes != 1 {
		t.Fatalf("alice info: %+v", infos[0])
	}

	// Ending bob's session unregisters his watch; alice's keeps running.
	if err := bob.EndSession(""); err != nil {
		t.Fatalf("endsession: %v", err)
	}
	infos, _ = alice.Sessions()
	if len(infos) != 1 || infos[0].Name != "alice" {
		t.Fatalf("session list after eviction: %+v", infos)
	}
	res, err = alice.UpdateWithDeltas(server.UpdateSpec{Op: "addEdge", From: 2, To: 3, Label: "follow"})
	if err != nil {
		t.Fatalf("update after eviction: %v", err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("tenant traffic rebuilt the cluster %d times, want 1 build", n)
	}
}

// TestFrontendEphemeralSessionDiesWithConnection: a connection that never
// names a session gets an auto-created one, evicted on disconnect.
func TestFrontendEphemeralSessionDiesWithConnection(t *testing.T) {
	var builds atomic.Int64
	addr, fe := startSharedFrontend(t, &builds)
	c1 := dialFrontend(t, addr)
	if _, _, err := c1.Gen("social", 150, 4); err != nil {
		t.Fatalf("gen: %v", err)
	}
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Watch("w", testPatterns[0]); err != nil {
		t.Fatalf("watch: %v", err)
	}
	if infos, _ := c1.Sessions(); len(infos) != 1 {
		t.Fatalf("expected c2's ephemeral session, got %+v", infos)
	}
	c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if infos, _ := c1.Sessions(); len(infos) == 0 {
			break
		}
		if time.Now().After(deadline) {
			infos, _ := c1.Sessions()
			t.Fatalf("ephemeral session survived disconnect: %+v", infos)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Its watch left the shared coordinator too.
	if ws := fe.Tenants().List(); len(ws) != 0 {
		t.Fatalf("tenant manager still tracks %+v", ws)
	}
}

// TestFrontendEphemeralSeriesGo: an ephemeral session's tenant.<name>.*
// series leave the registry with the session, so 10 000 connections that
// come and go leave the registry's series names as they found them. A
// named session keeps its series past its last connection.
func TestFrontendEphemeralSeriesGo(t *testing.T) {
	reg := obs.NewRegistry()
	fe := NewFrontend(FrontendConfig{
		Cluster:    Config{D: 2, Metrics: reg},
		NewWorkers: func() ([]Transport, error) { return InProcessN(2, server.Config{}), nil },
		Logf:       func(string, ...interface{}) {},
	})
	defer fe.Shutdown(context.Background())
	cycle := func(session string) {
		cs, ss := net.Pipe()
		done := make(chan struct{})
		go func() { defer close(done); fe.ServeConn(ss) }()
		c := client.NewClient(cs)
		if _, err := c.Do(&server.Request{Cmd: "session", Session: session}); err != nil {
			t.Fatalf("session %q: %v", session, err)
		}
		c.Close()
		<-done // the connection's release ran
	}
	names := func() []string {
		s := reg.Snapshot()
		var out []string
		for _, m := range []map[string]int64{s.Counters, s.Gauges} {
			for name := range m {
				out = append(out, name)
			}
		}
		for name := range s.Histograms {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	cycle("")
	before := names()
	for i := 0; i < 10_000; i++ {
		cycle("")
	}
	if after := names(); !reflect.DeepEqual(after, before) {
		t.Fatalf("10 000 ephemeral sessions left %d series, %d before:\n%q", len(after), len(before), after)
	}
	cycle("named")
	if after := names(); len(after) != len(before)+5 {
		t.Fatalf("a named session's series went with its connection: %d series, %d before", len(after), len(before))
	}
}

// TestFrontendReadYourWrites: a tenant's match immediately after its own
// update sees it, whichever copy replica routing picks: every copy
// applied the update before it was accepted.
func TestFrontendReadYourWrites(t *testing.T) {
	pool := newTestPool(4)
	fe := NewFrontend(FrontendConfig{
		Cluster: Config{D: 2, Replicas: 3, Pool: pool},
		NewWorkers: func() ([]Transport, error) {
			return InProcessN(2, server.Config{MaxWatches: -1}), nil
		},
		Logf: func(string, ...interface{}) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fe.Shutdown(ctx)
	})
	c := dialFrontend(t, ln.Addr().String())
	if _, _, err := c.Gen("social", 200, 9); err != nil {
		t.Fatalf("gen: %v", err)
	}
	base, err := c.Match(testPatterns[0], nil)
	if err != nil {
		t.Fatalf("match: %v", err)
	}
	if len(base.Matches) == 0 {
		t.Fatal("pattern has no answers; pick another seed")
	}
	// Interleave writes and immediate reads; every read must see its own
	// write's effect (the removed answer gone), whatever copy serves it.
	answers := base.Matches
	for i := 0; i < 3 && len(answers) > 0; i++ {
		victim := answers[0]
		if _, _, err := c.Update(server.UpdateSpec{Op: "removeNode", From: victim}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		res, err := c.Match(testPatterns[0], nil)
		if err != nil {
			t.Fatalf("match %d: %v", i, err)
		}
		for _, v := range res.Matches {
			if v == victim {
				t.Fatalf("read %d returned the tenant's own removed answer %d", i, victim)
			}
		}
		answers = res.Matches
	}
}
