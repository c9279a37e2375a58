package cluster

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
)

func startFrontend(t *testing.T, workers int) *client.Client {
	t.Helper()
	_, c := startFrontendWith(t, FrontendConfig{
		Cluster: Config{D: 2},
		NewWorkers: func() ([]Transport, error) {
			return InProcessN(workers, server.Config{}), nil
		},
	})
	return c
}

// startFrontendWith serves a quiet front end built from cfg on a loopback
// listener and connects one client; both are torn down with the test.
func startFrontendWith(t *testing.T, cfg FrontendConfig) (*Frontend, *client.Client) {
	t.Helper()
	cfg.Logf = func(string, ...interface{}) {}
	fe := NewFrontend(cfg)
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
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return fe, c
}

// TestFrontendEndToEnd drives a 2-worker cluster through the front-end
// wire protocol with the stock client: gen → watch → update → match, plus
// stats and partition introspection.
func TestFrontendEndToEnd(t *testing.T) {
	c := startFrontend(t, 2)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	nodes, edges, err := c.Gen("social", 200, 9)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	if nodes == 0 || edges == 0 {
		t.Fatalf("gen returned %d nodes / %d edges", nodes, edges)
	}

	pattern := "qgp\nn xo person *\nn z person\ne xo z follow >=3\n"
	wresp, err := c.Watch("w", pattern)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}

	mresp, err := c.Match(pattern, nil)
	if err != nil {
		t.Fatalf("match: %v", err)
	}
	if !reflect.DeepEqual(mresp.Matches, wresp.Matches) {
		t.Fatalf("match answers %v != watch initial answers %v", mresp.Matches, wresp.Matches)
	}

	// Per-request engine selection is forwarded to the workers: the enum
	// baseline must agree, and a bogus engine must be rejected.
	eresp, err := c.Match(pattern, &client.MatchOptions{Engine: "enum"})
	if err != nil {
		t.Fatalf("match engine=enum: %v", err)
	}
	if !reflect.DeepEqual(eresp.Matches, mresp.Matches) {
		t.Fatalf("enum answers %v != qmatch answers %v", eresp.Matches, mresp.Matches)
	}
	if _, err := c.Match(pattern, &client.MatchOptions{Engine: "bogus"}); err == nil {
		t.Fatal("bogus engine accepted")
	}

	uresp, err := c.UpdateWithDeltas(
		server.UpdateSpec{Op: "removeNode", From: mresp.Matches[0]},
	)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	var found bool
	for _, d := range uresp.Deltas {
		if d.Watch != "w" {
			continue
		}
		for _, v := range d.Removed {
			if v == mresp.Matches[0] {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("removing answer node %d did not surface in deltas: %+v", mresp.Matches[0], uresp.Deltas)
	}

	sresp, err := c.Stats(5)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if sresp.Nodes != uresp.Nodes {
		t.Fatalf("stats nodes %d != post-update nodes %d", sresp.Nodes, uresp.Nodes)
	}

	presp, err := c.Partition(0, 0)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if len(presp.Fragments) != 2 {
		t.Fatalf("partition fragments = %v, want 2 entries", presp.Fragments)
	}

	// Unsupported commands fail loudly instead of answering wrong.
	if _, err := c.PMatch(pattern, 2, 2); err == nil {
		t.Fatal("pmatch should not be served by the front end")
	}
	// The connection stays usable after a command error.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after error: %v", err)
	}
}

// TestFrontendNoGraph: querying before gen/load is a clean error.
func TestFrontendNoGraph(t *testing.T) {
	c := startFrontend(t, 2)
	if _, err := c.Match("qgp\nn xo person *\n", nil); err == nil {
		t.Fatal("match before gen succeeded")
	}
}

// TestFrontendRejectsWorkerRouting: the combined batch's owned field and
// the trace id are coordinator→worker vocabulary; a client sending either
// to the front end gets an explicit error, not silently dropped assignment
// or a trace under an id it picked.
func TestFrontendRejectsWorkerRouting(t *testing.T) {
	ring := obs.NewTraceBuffer(64, 0)
	_, c := startFrontendWith(t, FrontendConfig{
		Cluster:    Config{D: 2, Tracer: obs.NewTracer(nil, ring)},
		NewWorkers: func() ([]Transport, error) { return InProcessN(2, server.Config{}), nil },
	})
	if _, _, err := c.Gen("social", 100, 3); err != nil {
		t.Fatalf("gen: %v", err)
	}
	req := &server.Request{Cmd: "update", Updates: []server.UpdateSpec{{Op: "addNode", Label: "person"}}, Owned: []int64{0}}
	if _, err := c.Do(req); err == nil {
		t.Error("update with the owned field succeeded at the front end")
	}
	const clientID = 1 << 40
	for _, req := range []*server.Request{
		{Cmd: "match", Pattern: "qgp\nn xo person *\n"},
		{Cmd: "update", Updates: []server.UpdateSpec{{Op: "addNode", Label: "person"}}},
		{Cmd: "profile", Pattern: "qgp\nn xo person *\n"},
		{Cmd: "stats"},
	} {
		req.Trace = clientID
		if _, err := c.Do(req); err == nil || !strings.Contains(err.Error(), "field trace is not served") {
			t.Errorf("%s carrying a trace id: err %v, want the refusal", req.Cmd, err)
		}
	}
	for _, rec := range ring.Snapshot(false, 0) {
		if rec.ID == clientID {
			t.Errorf("a %s trace was kept under the client's id", rec.Op)
		}
	}
	// A plain update on the same connection still works.
	if _, _, err := c.Update(server.UpdateSpec{Op: "addNode", Label: "person"}); err != nil {
		t.Fatalf("plain update after rejections: %v", err)
	}
}

// TestFrontendOversizedLine: the front end shares server.Host's framing, so
// a request line over its MaxLineBytes is refused in words and the client
// reports them; the connection is closed behind the refusal.
func TestFrontendOversizedLine(t *testing.T) {
	fe := NewFrontend(FrontendConfig{
		MaxLineBytes: 1 << 10,
		Logf:         func(string, ...interface{}) {},
		Cluster:      Config{D: 2},
		NewWorkers:   func() ([]Transport, error) { return InProcessN(2, server.Config{}), nil },
	})
	defer fe.Shutdown(context.Background())
	cs, ss := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); fe.ServeConn(ss) }()
	c := client.NewClient(cs)
	defer func() { c.Close(); <-done }()

	if _, _, err := c.Gen("social", 50, 3); err != nil {
		t.Fatalf("gen: %v", err)
	}
	_, _, err := c.LoadText("# " + strings.Repeat("x", 2<<10) + "\ngraph 1\nn 0 person\n")
	if err == nil || err.Error() != "client: bad request: line exceeds 1024 bytes" {
		t.Fatalf("2 KiB load under a 1 KiB cap: %v", err)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("the connection survived an over-long line")
	}
}
