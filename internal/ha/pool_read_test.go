package ha

import (
	"reflect"
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
	if got := p.ReadLoads(); !reflect.DeepEqual(got, []int{8, 0, 0}) {
		t.Fatalf("ReadLoads = %v, want [8 0 0]", got)
	}

	// Tied placement loads: the pick must avoid the read-hammered
	// endpoint. Endpoint 1 and 2 are equally idle; open-session and id
	// tie-breaks choose 1.
	tr, ep, err := p.Get(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ep == 0 {
		t.Fatalf("Get placed a session on the read-skewed endpoint (reads %v)", p.ReadLoads())
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
	defer light.Close()
	if ep3 == ep2 {
		t.Fatalf("read skew outweighed a 100x placement load (picked %d)", ep3)
	}

	// Draining the burst restores balance: with reads back to zero the
	// tied pick returns to the lowest endpoint id among the lightest.
	for i := 0; i < 8; i++ {
		rt.ReadEnd()
	}
	if got := p.ReadLoads()[0]; got != 0 {
		t.Fatalf("ReadEnd left %d in-flight reads", got)
	}
}
