package ha

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/server"
)

// TestSpawnPoolPlacement: Get places sessions on the least-loaded
// allowed endpoint, falls back to the pool-wide least-loaded one when
// avoid covers everything, and closing a session returns its weight —
// once, however often it is closed. Loads are read where the next
// session lands.
func TestSpawnPoolPlacement(t *testing.T) {
	p := NewSpawnPool(3, server.Config{})
	lands := func(weight, want int, when string) cluster.Transport {
		t.Helper()
		tr, ep, err := p.Get(weight, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ep != want {
			t.Fatalf("%s: a session of weight %d landed on endpoint %d, want %d", when, weight, ep, want)
		}
		return tr
	}
	t0, e0, err := p.Get(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e0 != 0 {
		t.Fatalf("first Get landed on endpoint %d, want 0 (all empty)", e0)
	}
	_, e1, err := p.Get(10, map[int]bool{e0: true})
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e0 {
		t.Fatalf("Get ignored avoid: landed on %d", e1)
	}
	// All endpoints avoided: the pool must still serve (co-location is
	// better than no replica), from the least-loaded endpoint.
	_, e2, err := p.Get(5, map[int]bool{0: true, 1: true, 2: true})
	if err != nil {
		t.Fatal(err)
	}
	if e2 != 2 {
		t.Fatalf("fallback landed on endpoint %d, want 2 (the only empty one)", e2)
	}
	lands(1, 2, "loads [10 10 5]").Close()
	if err := t0.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	t0.Close() // double close must not double-release
	// Loads [0 10 5]; a double release would leave endpoint 0 at -10, and
	// a session of weight 10 there would not lift it above endpoint 2.
	lands(10, 0, "loads [0 10 5]")
	lands(1, 2, "loads [10 10 5] after the close")
	// Pooled sessions report their endpoint to the cluster layer.
	var ep cluster.Endpointer = t0.(cluster.Endpointer)
	if ep.Endpoint() != 0 {
		t.Fatalf("Endpoint() = %d", ep.Endpoint())
	}
}

// TestPoolPrimaries: primaries spread over distinct endpoints while the
// pool has spare ones and wrap past that; the sessions are real workers.
func TestPoolPrimaries(t *testing.T) {
	p := NewSpawnPool(3, server.Config{})
	ts, err := p.Primaries(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.CloseAll(ts)
	seen := map[int]bool{}
	for _, tr := range ts {
		seen[tr.(cluster.Endpointer).Endpoint()] = true
	}
	if len(seen) != 3 {
		t.Fatalf("3 primaries on %d distinct endpoints, want 3", len(seen))
	}
	for i, tr := range ts {
		resp, err := tr.Do(&server.Request{Cmd: "ping"})
		if err != nil || !resp.Pong {
			t.Fatalf("primary %d ping: resp=%+v err=%v", i, resp, err)
		}
	}
	// More primaries than endpoints: allowed, wrapping onto the pool.
	more, err := p.Primaries(5)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.CloseAll(more)
}

// TestDialPoolError: a dead endpoint surfaces a dial error and does not
// leak placement load.
func TestDialPoolError(t *testing.T) {
	p := NewDialPool([]string{"127.0.0.1:1", "127.0.0.1:1"}) // reserved port: nothing listens
	if _, _, err := p.Get(7, nil); err == nil {
		t.Fatal("dial to a dead endpoint succeeded")
	}
	// Had the failed Get kept its weight on endpoint 0, the next session
	// would land on endpoint 1.
	p.dial = func(int) (cluster.Transport, error) { return cluster.InProcess(server.Config{}), nil }
	tr, ep, err := p.Get(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if ep != 0 {
		t.Fatalf("failed Get leaked load: the next session landed on endpoint %d, want 0", ep)
	}
}
