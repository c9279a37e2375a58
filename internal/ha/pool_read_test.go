package ha

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/server"
)

// TestPoolReadSkew: a Match burst concentrated on one endpoint (modelled
// as in-flight routed reads bracketed by ReadStart/ReadEnd) must steer
// subsequent placement away from that endpoint even when shipped-fragment
// weights are tied — the read axis is what keeps bursts from piling onto
// one replica host.
func TestPoolReadSkew(t *testing.T) {
	p := NewSpawnPool(3, server.Config{})

	// One unit-weight session per endpoint: placement loads are tied at
	// [1 1 1], so without read accounting the next Get would land on the
	// lowest endpoint id (0).
	sessions := make([]cluster.Transport, 3)
	for i := range sessions {
		tr, ep, err := p.Get(1, map[int]bool{})
		if err != nil {
			t.Fatal(err)
		}
		if ep != i {
			t.Fatalf("setup session %d landed on endpoint %d", i, ep)
		}
		sessions[i] = tr
	}
	defer cluster.CloseAll(sessions)

	// Skew endpoint 0 with a burst of in-flight routed reads, the way the
	// coordinator's read router brackets every replica-served Match.
	rt, ok := sessions[0].(cluster.ReadTracker)
	if !ok {
		t.Fatal("pooled session does not implement cluster.ReadTracker")
	}
	for i := 0; i < 8; i++ {
		rt.ReadStart()
	}

	// Tied placement loads: the pick must avoid the read-hammered
	// endpoint. Endpoint 1 and 2 are equally idle; open-session and id
	// tie-breaks choose 1.
	tr, ep, err := p.Get(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ep == 0 {
		t.Fatal("Get placed a session on the read-skewed endpoint")
	}
	if ep != 1 {
		t.Fatalf("Get landed on endpoint %d, want 1", ep)
	}
	tr.Close()

	// Placement weight still dominates reads: a heavy endpoint with zero
	// reads loses to the read-skewed but placement-light one.
	heavy, ep2, err := p.Get(100, map[int]bool{0: true})
	if err != nil {
		t.Fatal(err)
	}
	defer heavy.Close()
	light, ep3, err := p.Get(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ep3 == ep2 {
		t.Fatalf("read skew outweighed a 100x placement load (picked %d)", ep3)
	}
	light.Close()

	// Draining the burst restores balance: endpoints 0 and 2 tie again on
	// placement load, and with reads back to zero the pick returns to the
	// lower id.
	for i := 0; i < 8; i++ {
		rt.ReadEnd()
	}
	tr, ep, err = p.Get(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if ep != 0 {
		t.Fatalf("after ReadEnd drained the burst, Get landed on endpoint %d, want 0", ep)
	}
}
