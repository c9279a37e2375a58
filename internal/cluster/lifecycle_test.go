package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestServeLifecycle: qgpd's Server and qgpcluster's Frontend run the
// same server.Host, so one table holds both to the same listener
// contract. Each row supplies a request whose handler parks on a gate
// the test controls: the server's per-request trace log line, the front
// end's worker construction during gen.
func TestServeLifecycle(t *testing.T) {
	type lifecycle interface {
		Serve(net.Listener) error
		Shutdown(context.Context) error
	}
	silent := func(string, ...interface{}) {}
	rows := []struct {
		name string
		// start returns the server under test; its slow request signals
		// entered from inside the handler and then blocks on release.
		start func(entered chan<- struct{}, release <-chan struct{}) lifecycle
		slow  *server.Request
	}{
		{"Server", func(entered chan<- struct{}, release <-chan struct{}) lifecycle {
			return server.New(server.Config{Logf: silent, Tracer: obs.NewTracer(func(string, ...interface{}) {
				entered <- struct{}{}
				<-release
			}, nil)})
		}, &server.Request{Cmd: "ping"}},
		{"Frontend", func(entered chan<- struct{}, release <-chan struct{}) lifecycle {
			return NewFrontend(FrontendConfig{Logf: silent, NewWorkers: func() ([]Transport, error) {
				entered <- struct{}{}
				<-release
				return InProcessN(1, server.Config{Logf: silent}), nil
			}})
		}, &server.Request{Cmd: "gen", Kind: "social", Size: 50}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			entered, release := make(chan struct{}), make(chan struct{})
			srv := row.start(entered, release)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()

			idle, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer idle.Close()
			busy, err := client.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer busy.Close()
			go busy.Do(row.slow) // fails when Shutdown closes the connection
			<-entered

			// An expired context returns its error without waiting for the
			// parked handler.
			expired, cancel := context.WithCancel(context.Background())
			cancel()
			if err := srv.Shutdown(expired); !errors.Is(err, context.Canceled) {
				t.Fatalf("Shutdown(expired ctx) = %v, want context.Canceled", err)
			}
			if err := <-served; err == nil {
				t.Fatal("Serve returned nil after Shutdown closed its listener")
			}
			// Live connections are closed...
			idle.SetReadDeadline(time.Now().Add(5 * time.Second))
			var ne net.Error
			if _, err := idle.Read(make([]byte, 1)); err == nil || (errors.As(err, &ne) && ne.Timeout()) {
				t.Fatalf("idle connection not closed by Shutdown: read error %v", err)
			}
			// ...and a full Shutdown waits for the in-flight handler.
			done := make(chan error, 1)
			go func() { done <- srv.Shutdown(context.Background()) }()
			select {
			case err := <-done:
				t.Fatalf("Shutdown returned (%v) while a handler was still in flight", err)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Shutdown: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Shutdown still blocked 5s after the handler finished")
			}

			ln2, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln2.Close()
			if err := srv.Serve(ln2); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("Serve after Shutdown = %v, want net.ErrClosed", err)
			}
		})
	}
}
