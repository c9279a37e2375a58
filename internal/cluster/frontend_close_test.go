package cluster

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// closeCounting wraps a transport and records whether it was closed and
// how many match requests it answered.
type closeCounting struct {
	Transport
	closed  atomic.Bool
	matches atomic.Int64
}

func (t *closeCounting) Do(req *server.Request) (*server.Response, error) {
	resp, err := t.Transport.Do(req)
	if err == nil && req.Cmd == "match" {
		t.matches.Add(1)
	}
	return resp, err
}

func (t *closeCounting) Close() error {
	t.closed.Store(true)
	return t.Transport.Close()
}

// TestFrontendClosesWorkersOnDisconnect: the shared cluster outlives its
// connections — an abrupt client disconnect evicts only that
// connection's ephemeral tenant and its watches — while a gen rebuild and
// Shutdown each close every worker session the replaced coordinator
// owned, pool-acquired replicas included, instead of leaking them for
// the process lifetime.
func TestFrontendClosesWorkersOnDisconnect(t *testing.T) {
	var mu sync.Mutex
	var made []*closeCounting
	pool := newTestPool(4)
	fe := NewFrontend(FrontendConfig{
		Cluster: Config{D: 2, Replicas: 2, Pool: pool},
		NewWorkers: func() ([]Transport, error) {
			ts := make([]Transport, 2)
			mu.Lock()
			for i := range ts {
				cc := &closeCounting{Transport: InProcess(server.Config{})}
				made = append(made, cc)
				ts[i] = cc
			}
			mu.Unlock()
			return ts, nil
		},
		Logf: func(string, ...interface{}) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(ln)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := fe.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
	t.Cleanup(shutdown)
	// primaries snapshots the transports NewWorkers has handed out.
	primaries := func() []*closeCounting {
		mu.Lock()
		defer mu.Unlock()
		return append([]*closeCounting(nil), made...)
	}
	closedOf := func(ccs []*closeCounting) int {
		n := 0
		for _, cc := range ccs {
			if cc.closed.Load() {
				n++
			}
		}
		return n
	}

	keeper := dialFrontend(t, ln.Addr().String())
	if _, _, err := keeper.Gen("social", 150, 4); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if n := len(primaries()); n != 2 {
		t.Fatalf("expected 2 worker transports, NewWorkers made %d", n)
	}
	if got := pool.handedCount(); got != 2 {
		t.Fatalf("expected 2 pool replicas, pool handed out %d", got)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.NewClient(conn).Watch("w", testPatterns[0]); err != nil {
		t.Fatalf("watch: %v", err)
	}
	coord := fe.coord.Load()
	if ws := coord.Watches(); len(ws) != 1 {
		t.Fatalf("coordinator watches before disconnect: %v", ws)
	}
	// Abrupt disconnect: RST instead of FIN, no unwatch/cleanup traffic.
	conn.(*net.TCPConn).SetLinger(0)
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(fe.Tenants().List()) > 0 || len(coord.Watches()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("5s after abrupt disconnect: tenants %+v, coordinator watches %v", fe.Tenants().List(), coord.Watches())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := closedOf(primaries()) + 2 - pool.openCount(); n != 0 {
		t.Fatalf("disconnect closed %d of the shared cluster's worker sessions", n)
	}
	if _, err := keeper.Match(testPatterns[0], nil); err != nil {
		t.Fatalf("shared cluster down after another client's disconnect: %v", err)
	}

	// A rebuild releases everything the replaced coordinator owned.
	if _, _, err := keeper.Gen("social", 150, 5); err != nil {
		t.Fatalf("second gen: %v", err)
	}
	ps := primaries()
	if len(ps) != 4 || pool.handedCount() != 4 {
		t.Fatalf("rebuild made %d transports and %d pool replicas, want 4 and 4", len(ps), pool.handedCount())
	}
	if closedOf(ps[:2]) != 2 || closedOf(ps[2:]) != 0 || pool.openCount() != 2 {
		t.Fatalf("after rebuild: %d/2 old primaries closed, %d/2 new ones closed, %d pool sessions open (want 2, 0, 2)",
			closedOf(ps[:2]), closedOf(ps[2:]), pool.openCount())
	}

	// So does Shutdown.
	shutdown()
	if closedOf(ps) != 4 || pool.openCount() != 0 {
		t.Fatalf("after shutdown: %d/4 primaries closed, %d pool sessions open", closedOf(ps), pool.openCount())
	}
}
