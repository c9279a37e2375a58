// Command qgpd serves quantified graph pattern matching over TCP with a
// newline-delimited JSON protocol (see internal/server for the command
// set). Sessions are per-connection; each session loads or generates its
// own graph and queries it.
//
// Usage:
//
//	qgpd [-addr :7687] [-max-concurrent 4] [-budget 50000000]
//
// Each session holds at most -max-watches standing patterns (default
// 16). Workers serving a shared multi-tenant qgpcluster front end must
// run with -max-watches -1: the front end aggregates every tenant's
// watches in one worker session and enforces quotas per tenant itself.
// A session holding a fragment answers the stats command restricted to
// its owned nodes (structured triple rows), so a cluster front end can
// sum per-worker summaries into the exact global answer and route the
// command to replicas like any other read.
//
// Observability: -debug-addr starts an HTTP listener with the server's
// metrics registry (per-command counts and latency histograms), a health
// report, retained request traces, windowed percentiles and the runtime
// profiles:
//
//	qgpd -addr :7687 -debug-addr :7698
//	curl -s localhost:7698/metrics                 # cumulative, JSON
//	curl -s 'localhost:7698/metrics?format=prom'   # Prometheus text format
//	curl -s 'localhost:7698/metrics?window=1'      # last-window p50/p95/p99
//	curl -s 'localhost:7698/debug/traces?slow=1'   # recent slow requests
//	curl -s localhost:7698/healthz
//
// The cumulative snapshot is also served in-protocol by the metrics
// command. -trace additionally logs one structured line per finished
// request; the trace ring buffer (-trace-buf, -trace-slow) is always on.
//
// EXPLAIN/PROFILE: the explain command returns the engine's matching
// order and the class sizes that ranked it without executing; profile executes a
// match or update traced, with or without -trace, and returns the
// request's trace record in the response's profile field: timed spans
// (graph.apply, dynamic.affected and dynamic.verify per watch group,
// match.qmatch), counts
// (answers; batch, edits, nodes, affected) and a match's engine profile
// (candidate sizes, order, bound origin). A cluster coordinator's traced
// hop gets the same record under the coordinator's trace id.
//
// Try it with netcat:
//
//	printf '{"id":1,"cmd":"gen","kind":"social","size":1000}\n{"id":2,"cmd":"match","pattern":"qgp\nn xo person *\nn z person\ne xo z follow >=3\n"}\n' | nc localhost 7687
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":7687", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 4, "maximum concurrently executing queries")
	budget := flag.Int64("budget", 50_000_000, "default extension budget per query (-1 disables)")
	maxGraph := flag.Int("max-graph", 50_000_000, "maximum session graph size (|V|+|E|)")
	maxWatches := flag.Int("max-watches", 0, "maximum standing patterns per session (0 = default 16, negative = unlimited; qgpcluster workers in shared multi-tenant mode need -1)")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "close idle connections after this long")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/traces and /debug/pprof on this HTTP address (empty: disabled)")
	trace := flag.Bool("trace", false, "log one structured line per finished request")
	traceBuf := flag.Int("trace-buf", 128, "retain this many finished request traces for /debug/traces")
	traceSlow := flag.Float64("trace-slow", 50, "flag traces at or above this many milliseconds as slow (0 disables)")
	window := flag.Duration("window", 10*time.Second, "latency percentile window length for /metrics?window=1")
	flag.Parse()

	reg := obs.NewRegistry()
	traces := obs.NewTraceBuffer(*traceBuf, *traceSlow)
	var logf func(format string, args ...interface{})
	if *trace {
		logf = log.Printf
	}
	tracer := obs.NewTracer(logf, traces)
	windows := obs.NewWindows(reg, *window)
	windows.Start()
	defer windows.Stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("qgpd: %v", err)
	}
	srv := server.New(server.Config{
		MaxConcurrent: *maxConcurrent,
		DefaultBudget: *budget,
		MaxGraphSize:  *maxGraph,
		MaxWatches:    *maxWatches,
		IdleTimeout:   *idle,
		Metrics:       reg,
		Tracer:        tracer,
	})
	log.Printf("qgpd: listening on %s", ln.Addr())

	var debug *obs.DebugServer
	if *debugAddr != "" {
		debug, err = obs.Serve(*debugAddr, obs.HandlerConfig{
			Registry: reg,
			Health:   srv.Health,
			Traces:   traces,
			Windows:  windows,
		})
		if err != nil {
			log.Fatalf("qgpd: debug listener: %v", err)
		}
		log.Printf("qgpd: debug endpoint on http://%s (/metrics /healthz /debug/traces /debug/pprof)", debug.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		log.Printf("qgpd: %v, shutting down", sig)
	case err := <-errc:
		log.Printf("qgpd: serve: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if debug != nil {
		debug.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "qgpd: shutdown: %v\n", err)
		os.Exit(1)
	}
}
