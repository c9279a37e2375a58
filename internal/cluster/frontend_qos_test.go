package cluster

import (
	"bytes"
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
)

// startQoSFrontend starts a front end with admission
// control configured and a metrics registry attached.
func startQoSFrontend(t *testing.T, tcfg tenant.Config, reg *obs.Registry) (string, *Frontend) {
	t.Helper()
	fe := NewFrontend(FrontendConfig{
		Cluster: Config{D: 2, Metrics: reg},
		Tenancy: tcfg,
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
	return ln.Addr().String(), fe
}

// TestFrontendThrottleOnTheWire: a rate-limited tenant's rejection
// travels as a typed retry-after, and the commands that must stay free
// under throttling — stats, deltas — keep working.
func TestFrontendThrottleOnTheWire(t *testing.T) {
	addr, fe := startQoSFrontend(t, tenant.Config{RateQPS: 0.1, RateBurst: 1}, obs.NewRegistry())
	c := dialFrontend(t, addr)
	if _, err := c.Session("t"); err != nil {
		t.Fatal(err)
	}
	// Graph builds are not admission-charged: the cap is on per-tenant
	// cluster work, not on setup.
	if _, _, err := c.Gen("social", 150, 4); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if _, err := c.Match(testPatterns[0], nil); err != nil {
		t.Fatalf("match within burst: %v", err)
	}
	_, err := c.Match(testPatterns[0], nil)
	var se *client.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("match past burst: %v, want *client.ServerError", err)
	}
	// One token at 0.1 qps is 10s away: the advertised backoff must be
	// meaningful, not a rounding artifact.
	if se.RetryAfterMS < 1000 {
		t.Fatalf("throttled response advertises RetryAfterMS=%v, want >= 1000", se.RetryAfterMS)
	}
	// A throttled tenant can still observe and drain: refusing deltas
	// would keep its inbox full — the opposite of the bounded-inbox goal.
	if _, err := c.Stats(3); err != nil {
		t.Fatalf("stats while throttled: %v", err)
	}
	if _, err := c.Deltas(); err != nil {
		t.Fatalf("deltas while throttled: %v", err)
	}
	infos := fe.Tenants().List()
	if len(infos) != 1 || infos[0].Throttled != 1 {
		t.Fatalf("tenant rows: %+v", infos)
	}
}

// TestFrontendTwoTenantFairness is the QoS regression: tenant A
// saturates the shared front end with updates it has no budget for and
// never drains its inbox; none of A's batches may reach the coordinator
// (they are refused at admission, before the write lock B's routed reads
// contend with), A's pending inbox must stay bounded (overflow to a
// Resync marker, not growth), and both show up in the per-tenant metric
// series.
func TestFrontendTwoTenantFairness(t *testing.T) {
	reg := obs.NewRegistry()
	// A small post-paid update budget that refills far slower than the
	// test runs, and a tiny inbox cap: the first oversized update drives
	// a tenant into debt for the rest of the test, and a burst of
	// undrained deltas overflows fast.
	addr, fe := startQoSFrontend(t, tenant.Config{
		AffectedPerSec: 0.05,
		AffectedBurst:  5,
		MaxPendingIDs:  2,
	}, reg)

	cb := dialFrontend(t, addr)
	if _, err := cb.Session("b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cb.Gen("social", 400, 9); err != nil {
		t.Fatalf("gen: %v", err)
	}
	ca := dialFrontend(t, addr)
	if _, err := ca.Session("a"); err != nil {
		t.Fatal(err)
	}
	wa, err := ca.Watch("w", testPatterns[0])
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if len(wa.Matches) < 3 {
		t.Fatalf("pattern has %d answers; pick another seed", len(wa.Matches))
	}

	// B removes three of A's watch answers in one batch, and the delta lands
	// in A's inbox — three ids against a cap of two, so A overflows to a
	// Resync marker instead of growing.
	batch := []server.UpdateSpec{
		{Op: "removeNode", From: wa.Matches[0]},
		{Op: "removeNode", From: wa.Matches[1]},
		{Op: "removeNode", From: wa.Matches[2]},
	}
	if _, _, err := cb.Update(batch...); err != nil {
		t.Fatalf("update: %v", err)
	}

	const rounds = 40
	measure := func() time.Duration {
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if _, err := cb.Match(testPatterns[0], nil); err != nil {
				t.Fatalf("match %d: %v", i, err)
			}
		}
		return time.Since(t0)
	}
	baseline := measure()

	// A overdraws its budget with one batch: eight created persons are
	// eight focus candidates to verify, against a burst of five. The
	// charge is post-paid, so this batch is served.
	var oversized []server.UpdateSpec
	for i := 0; i < 8; i++ {
		oversized = append(oversized, server.UpdateSpec{Op: "addNode", Label: "person"})
	}
	own, err := ca.UpdateWithDeltas(oversized...)
	if err != nil {
		t.Fatalf("tenant a's oversized update: %v", err)
	}

	// Tenant A hammers updates from two connections in tight loops. Its
	// budget is negative, so admission rejects the batches at the
	// manager — cheaply, before any coordinator work.
	served := reg.Counter("cluster.update.count").Value()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		h := dialFrontend(t, addr)
		if _, err := h.Session("a"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h *client.Client) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, _ = h.Update(server.UpdateSpec{Op: "addEdge", From: 2, To: 3, Label: "follow"})
			}
		}(h)
	}
	contended := measure()
	close(stop)
	wg.Wait()

	// The mechanism: no batch of A's reached the coordinator, so none
	// took the write lock B's reads wait behind. The timing bound is
	// only a backstop — what is left is A's share of the front end's
	// CPU, which on a loaded two-core box is not B's to keep.
	if got := reg.Counter("cluster.update.count").Value(); got != served {
		t.Errorf("cluster.update.count went %d -> %d under A's saturation: a batch without budget reached the coordinator", served, got)
	}
	if limit := 4*baseline + time.Second; contended > limit {
		t.Errorf("B's %d matches took %v under A's saturation vs %v alone (backstop %v)",
			rounds, contended, baseline, limit)
	}

	var a, b server.TenantInfo
	for _, info := range fe.Tenants().List() {
		switch info.Name {
		case "a":
			a = info
		case "b":
			b = info
		}
	}
	if a.Throttled == 0 {
		t.Error("tenant a was never throttled")
	}
	if a.Overflows < 1 {
		t.Errorf("tenant a overflows = %d, want >= 1", a.Overflows)
	}
	if a.PendingIDs > 2 {
		t.Errorf("tenant a pending inbox %d ids exceeds the cap of 2", a.PendingIDs)
	}
	if b.Throttled != 0 {
		t.Errorf("tenant b throttled %d times; only A was misbehaving", b.Throttled)
	}

	// A's next write reports the hole in its delta stream, the overflowed
	// inbox entry folded into its own delta, and leaves nothing to drain.
	resync := false
	for _, d := range own.Deltas {
		if d.Watch == "w" && d.Resync {
			resync = true
		}
	}
	if !resync {
		t.Errorf("overflowed watch's entry came back without a resync marker: %+v", own.Deltas)
	}
	if ds, err := ca.Deltas(); err != nil || len(ds) != 0 {
		t.Errorf("drain after the folded reply: %+v (%v), want nothing", ds, err)
	}

	// Per-tenant series: B's served matches landed in its latency
	// histogram (the windowed-percentile source), A's rejections and
	// overflow in its counters.
	if n := reg.Histogram("tenant.b.match.ms", obs.LatencyBucketsMS).Count(); n < 2*rounds {
		t.Errorf("tenant.b.match.ms observed %d commands, want >= %d", n, 2*rounds)
	}
	if v := reg.Counter("tenant.a.throttled").Value(); v == 0 {
		t.Error("tenant.a.throttled counter is zero")
	}
	if v := reg.Counter("tenant.a.inbox_overflow").Value(); v < 1 {
		t.Errorf("tenant.a.inbox_overflow = %d, want >= 1", v)
	}
}

// TestFrontendStatsConsistency: the front end's fanned-out,
// replica-routed stats must be byte-identical to a standalone
// server.Server's collection over the same graph (the reference
// renderer) — same counts, same label names, same rendered rows — and
// both must honor TopK the same way.
func TestFrontendStatsConsistency(t *testing.T) {
	reg := obs.NewRegistry()
	sharedAddr, fe := startQoSFrontend(t, tenant.Config{}, reg)
	shared := dialFrontend(t, sharedAddr)
	if _, _, err := shared.Gen("social", 300, 5); err != nil {
		t.Fatalf("gen: %v", err)
	}

	// The reference loads the coordinator's normalized graph, so both
	// sides summarize the same edge set.
	var text bytes.Buffer
	if _, err := fe.coord.Load().Graph().WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Logf: func(string, ...interface{}) {}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	ref := dialFrontend(t, ln.Addr().String())
	if _, _, err := ref.LoadText(text.String()); err != nil {
		t.Fatalf("load: %v", err)
	}

	routedBefore := reg.Counter("cluster.read.primary").Value() + reg.Counter("cluster.read.replica").Value()
	for _, topK := range []int{0, 3} {
		rs, err := shared.Stats(topK)
		if err != nil {
			t.Fatalf("shared stats: %v", err)
		}
		ri, err := ref.Stats(topK)
		if err != nil {
			t.Fatalf("reference stats: %v", err)
		}
		if rs.Nodes != ri.Nodes || rs.Edges != ri.Edges || rs.Labels != ri.Labels {
			t.Fatalf("counts diverge: shared %d/%d/%d, reference %d/%d/%d",
				rs.Nodes, rs.Edges, rs.Labels, ri.Nodes, ri.Edges, ri.Labels)
		}
		if !reflect.DeepEqual(rs.LabelNames, ri.LabelNames) {
			t.Fatalf("label names diverge: %v vs %v", rs.LabelNames, ri.LabelNames)
		}
		if !reflect.DeepEqual(rs.Triples, ri.Triples) {
			t.Fatalf("rendered rows diverge (topK=%d):\nshared    %v\nreference %v", topK, rs.Triples, ri.Triples)
		}
		if !reflect.DeepEqual(rs.TripleRows, ri.TripleRows) {
			t.Fatalf("structured rows diverge (topK=%d)", topK)
		}
		want := server.StatsTopK(topK)
		if len(rs.TripleRows) < want {
			want = len(rs.TripleRows)
		}
		if len(rs.Triples) != want {
			t.Fatalf("topK=%d rendered %d rows, want %d", topK, len(rs.Triples), want)
		}
	}
	// The shared answers came through the read router, not a front-end
	// graph clone: both fragments' copies served routed stats reads.
	routed := reg.Counter("cluster.read.primary").Value() + reg.Counter("cluster.read.replica").Value()
	if routed-routedBefore < 4 {
		t.Fatalf("routed reads grew by %d over two stats calls on two fragments, want >= 4", routed-routedBefore)
	}
}
