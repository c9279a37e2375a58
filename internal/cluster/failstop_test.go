package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/server"
)

// flakyTransport wraps a real in-process worker but fails every command
// named in failOn, simulating a worker dying mid-operation.
type flakyTransport struct {
	Transport
	failOn string
}

func (f *flakyTransport) Do(req *server.Request) (*server.Response, error) {
	if req.Cmd == f.failOn {
		return nil, errors.New("injected transport failure")
	}
	return f.Transport.Do(req)
}

// TestFailStop: with no replicas and no worker pool, a worker failure
// during Watch, Unwatch or Update marks the coordinator failed, and
// every later request is refused instead of answered from possibly
// inconsistent fragments. The failure identifies which worker died and
// during which operation.
func TestFailStop(t *testing.T) {
	for _, failOn := range []string{"watch", "unwatch", "update"} {
		failOn := failOn
		t.Run(failOn, func(t *testing.T) {
			g := gen.Social(gen.DefaultSocial(100, 1))
			healthy := InProcess(server.Config{})
			flaky := &flakyTransport{Transport: InProcess(server.Config{}), failOn: failOn}
			ts := []Transport{healthy, flaky}
			c, err := New(g, ts, Config{D: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			q := mustParse(t, testPatterns[0])

			var opErr error
			switch failOn {
			case "watch":
				_, opErr = c.Watch("w", q)
			case "unwatch":
				if _, err := c.Watch("w", q); err != nil {
					t.Fatal(err)
				}
				opErr = c.Unwatch("w")
			case "update":
				// Touch both fragments so the flaky worker is contacted.
				_, opErr = c.Update([]server.UpdateSpec{
					{Op: "addNode", Label: "person"},
					{Op: "addNode", Label: "person"},
				})
			}
			if opErr == nil {
				t.Fatalf("%s with a failing worker succeeded", failOn)
			}
			// The error must identify the failed worker (the flaky one is
			// worker 1) and the operation in flight.
			var we *WorkerError
			if !errors.As(opErr, &we) {
				t.Fatalf("%s error %v is not a *WorkerError", failOn, opErr)
			}
			if we.Worker != 1 {
				t.Errorf("%s: WorkerError.Worker = %d, want 1 (the flaky worker)", failOn, we.Worker)
			}
			if we.Op != failOn {
				t.Errorf("%s: WorkerError.Op = %q, want %q", failOn, we.Op, failOn)
			}
			if !strings.Contains(opErr.Error(), "worker 1") || !strings.Contains(opErr.Error(), failOn) {
				t.Errorf("%s: error %q does not name the worker and operation", failOn, opErr)
			}
			if _, err := c.Match(q); err == nil || !strings.Contains(err.Error(), "failed earlier") {
				t.Fatalf("Match after failed %s: err = %v, want fail-stop refusal", failOn, err)
			}
		})
	}
}

// TestWatchCapRollback: a worker that refuses a watch registration with
// a protocol error — here its own per-session watch cap, the only cap
// there is (the shape of a stock remote qgpd behind a shared
// multi-tenant front end) — does not fail-stop the cluster. The partial
// registration is rolled back on the workers that accepted it, the
// error goes to the one caller, and the cluster keeps serving everyone
// else.
func TestWatchCapRollback(t *testing.T) {
	for _, tc := range []struct {
		caps    [2]int
		refuser int // the worker the refusal names: the first to refuse
	}{
		{[2]int{-1, 2}, 1}, // worker 0 accepts, worker 1 refuses
		{[2]int{2, 2}, 0},  // both refuse
	} {
		t.Run(fmt.Sprintf("caps %d,%d", tc.caps[0], tc.caps[1]), func(t *testing.T) {
			g := gen.Social(gen.DefaultSocial(100, 1))
			ts := []Transport{
				InProcess(server.Config{MaxWatches: tc.caps[0]}),
				InProcess(server.Config{MaxWatches: tc.caps[1]}),
			}
			c, err := New(g, ts, Config{D: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			q := mustParse(t, testPatterns[0])
			for _, name := range []string{"w1", "w2"} {
				if _, err := c.Watch(name, q); err != nil {
					t.Fatalf("Watch(%s): %v", name, err)
				}
			}

			_, err = c.Watch("w3", q)
			if err == nil {
				t.Fatal("watch past the worker-side cap succeeded")
			}
			var we *WorkerError
			if !errors.As(err, &we) {
				t.Fatalf("cap rejection surfaced as %T (%v), want *WorkerError", err, err)
			}
			if we.Worker != tc.refuser || !strings.Contains(err.Error(), "limit") {
				t.Errorf("cap rejection %v does not name worker %d and its limit", err, tc.refuser)
			}

			// Not fail-stopped: reads and writes keep serving, and a
			// rolled-back registration leaks no w3 delta into updates.
			if _, err := c.Match(q); err != nil {
				t.Fatalf("Match after rejected watch: %v", err)
			}
			res, err := c.Update([]server.UpdateSpec{{Op: "addNode", Label: "person"}})
			if err != nil {
				t.Fatalf("Update after rejected watch: %v", err)
			}
			for _, d := range res.Deltas {
				if d.Watch == "w3" {
					t.Fatalf("orphan registration leaked a w3 delta: %+v", d)
				}
			}

			// Freeing a slot lets the same name register cleanly on every
			// worker; an orphan left on any would reject it as a duplicate.
			if err := c.Unwatch("w1"); err != nil {
				t.Fatalf("Unwatch(w1): %v", err)
			}
			if _, err := c.Watch("w3", q); err != nil {
				t.Fatalf("re-watch of the rolled-back name: %v", err)
			}
			got := c.Watches()
			want := []string{"w2", "w3"}
			if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("Watches() = %v, want %v", got, want)
			}
		})
	}
}

// TestClosedRefusal: a closed coordinator refuses requests with a clean
// error instead of writing to closed worker sessions.
func TestClosedRefusal(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(80, 2))
	c, err := New(g, InProcessN(2, server.Config{}), Config{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := c.Match(mustParse(t, testPatterns[0])); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Match on closed coordinator: err = %v, want closed refusal", err)
	}
}

// TestFrontendFailedRebuild: when re-fragmentation fails partway, the
// front-end session refuses queries instead of serving answers through
// the stale coordinator's tables.
func TestFrontendFailedRebuild(t *testing.T) {
	// The front end dials a fresh worker set per gen/load (the built
	// coordinator owns it); failOn steers each fresh set's second worker.
	failOn := ""
	fe := NewFrontend(FrontendConfig{
		Cluster: Config{D: 2},
		NewWorkers: func() ([]Transport, error) {
			flaky := &flakyTransport{Transport: InProcess(server.Config{}), failOn: failOn}
			return []Transport{InProcess(server.Config{}), flaky}, nil
		},
		Logf: func(string, ...interface{}) {},
	})
	handle, _ := fe.openConn()
	defer fe.Shutdown(context.Background())

	resp := handle(&server.Request{Cmd: "gen", Kind: "social", Size: 100, Seed: 1})
	if resp.Error != "" {
		t.Fatalf("gen: %s", resp.Error)
	}
	// Second gen fails mid-fragmentation: one worker re-fragmented, one
	// dead.
	failOn = "fragment"
	resp = handle(&server.Request{Cmd: "gen", Kind: "social", Size: 120, Seed: 2})
	if resp.Error == "" {
		t.Fatal("gen with a dying worker succeeded")
	}
	resp = handle(&server.Request{Cmd: "match", Pattern: testPatterns[0]})
	if resp.Error == "" {
		t.Fatal("match served through a stale coordinator after failed re-fragmentation")
	}
	// A successful gen recovers the session.
	failOn = ""
	resp = handle(&server.Request{Cmd: "gen", Kind: "social", Size: 100, Seed: 1})
	if resp.Error != "" {
		t.Fatalf("recovery gen: %s", resp.Error)
	}
	resp = handle(&server.Request{Cmd: "match", Pattern: testPatterns[0]})
	if resp.Error != "" {
		t.Fatalf("match after recovery: %s", resp.Error)
	}
}
