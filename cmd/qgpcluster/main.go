// Command qgpcluster runs the coordinator of a quantified-matching
// cluster and exposes it as a front-end server speaking the same
// newline-delimited JSON protocol as qgpd, so existing clients work
// unchanged. Workers are either stock qgpd processes reached over TCP
// (-workers) or embedded in-process servers (-spawn).
//
// All connections share ONE cluster session — one fragmentation, one
// write path — multiplexed by the tenant layer: each connection (or
// named session, via the session wire command) gets a private watch
// namespace with quotas (-max-tenants, -tenant-idle), and with
// -replicas k > 1 reads are routed to the least-loaded live copy of
// each fragment; every live copy holds every accepted write.
//
// Distributed (workers need -max-watches -1: the shared session
// aggregates every tenant's watches in one worker session, so the
// worker-side per-session cap must be lifted to match the front end's):
//
//	qgpd -addr :7700 -max-watches -1 &
//	qgpd -addr :7701 -max-watches -1 &
//	qgpcluster -addr :7688 -workers localhost:7700,localhost:7701
//
// Single machine (embedded workers):
//
//	qgpcluster -addr :7688 -spawn 4
//
// High availability: keep k copies of every fragment on warm replica
// sessions, probe the workers every 2 seconds and fail dead ones over,
// and journal the graph and every accepted update batch so a restart
// recovers the cluster (graph, fragments and standing watches):
//
//	qgpcluster -addr :7688 -spawn 4 -replicas 2 -supervise 2s -journal /var/lib/qgp
//
// Observability: -debug-addr starts an HTTP listener with the metrics
// registry, a health report and the runtime profiles; -trace logs one
// structured line per request with per-worker spans (a profile request's
// also nests each worker's own spans under the round trip that waited):
//
//	qgpcluster -addr :7688 -spawn 2 -debug-addr :7699 -trace
//	curl -s localhost:7699/metrics   # counters, gauges, latency histograms
//	curl -s 'localhost:7699/metrics?format=prom'   # Prometheus text format
//	curl -s 'localhost:7699/metrics?window=1'      # last-window p50/p95/p99
//	curl -s 'localhost:7699/debug/traces?slow=1'   # recent slow requests
//	curl -s localhost:7699/healthz   # topology + per-fragment liveness
//	curl -s localhost:7699/debug/pprof/   # standard runtime profiles
//
// The trace ring buffer behind /debug/traces (-trace-buf, -trace-slow)
// is always on; -trace additionally logs each finished request. The
// explain command returns a merged plan document with each worker's own
// embedded; profile returns the request's trace record, which nests one
// record per contacted worker under the coordinator's trace id.
//
// The same registry snapshot is served over the wire protocol as the
// metrics command, so a newline-JSON client needs no second port:
//
//	printf '{"id":1,"cmd":"metrics"}\n' | nc localhost 7688
//
// Try it with netcat:
//
//	printf '{"id":1,"cmd":"gen","kind":"social","size":1000}\n{"id":2,"cmd":"match","pattern":"qgp\nn xo person *\nn z person\ne xo z follow >=3\n"}\n' | nc localhost 7688
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
)

func main() {
	addr := flag.String("addr", ":7688", "front-end listen address")
	workers := flag.String("workers", "", "comma-separated qgpd worker addresses (empty: use -spawn)")
	spawn := flag.Int("spawn", 2, "number of embedded in-process workers when -workers is empty")
	d := flag.Int("d", 2, "hop radius preserved by the fragmentation (patterns needing more are rejected)")
	engine := flag.String("engine", "qmatch", "per-worker matching engine: qmatch | qmatchn | enum")
	budget := flag.Int64("budget", 0, "extension budget forwarded to workers (0 = worker default)")
	replicas := flag.Int("replicas", 1, "copies of each fragment (k); k-1 warm replicas back every primary and serve routed reads")
	maxTenants := flag.Int("max-tenants", 1024, "maximum live tenant sessions (negative = unlimited)")
	tenantIdle := flag.Duration("tenant-idle", 15*time.Minute, "evict named tenant sessions with no connection after this long idle (negative = never)")
	tenantQPS := flag.Float64("tenant-qps", 0, "per-tenant admitted commands per second — match, update, watch (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "per-tenant command bucket size (0 = 2x -tenant-qps, at least 1)")
	tenantAffected := flag.Float64("tenant-affected", 0, "per-tenant update budget in affected-set units per second — the focus candidates the workers re-judged, each worker's widest watch group summed, typically a handful per changed edge — post-paid against each batch's real count (0 = unlimited)")
	tenantAffectedBurst := flag.Int("tenant-affected-burst", 0, "per-tenant affected-set budget bucket size (0 = 4x -tenant-affected, at least 1)")
	tenantInbox := flag.Int("tenant-inbox", 0, "per-watch cap on a tenant's undrained coalesced delta ids; overflow drops the state and marks the watch resync (0 = 4096, negative = unlimited)")
	journalDir := flag.String("journal", "", "directory for the snapshot+journal; existing state is recovered at startup and the front end serves one durable session shared by all connections")
	fsync := flag.Bool("fsync", false, "fsync every journaled update batch before fanning it out")
	compactBytes := flag.Int64("compact-bytes", 16<<20, "fold the mutation journal into a fresh snapshot once it exceeds this many bytes (0 = compact only at startup)")
	supervise := flag.Duration("supervise", 0, "probe workers this often and fail dead ones over (0 = failover only when an operation trips)")
	maxGraph := flag.Int("max-graph", 50_000_000, "maximum session graph size (|V|+|E|)")
	idle := flag.Duration("idle-timeout", 5*time.Minute, "close idle front-end connections after this long")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this HTTP address (empty: disabled)")
	trace := flag.Bool("trace", false, "log one structured line per request with per-worker spans")
	traceBuf := flag.Int("trace-buf", 128, "retain this many finished request traces for /debug/traces")
	traceSlow := flag.Float64("trace-slow", 50, "flag traces at or above this many milliseconds as slow (0 disables)")
	window := flag.Duration("window", 10*time.Second, "latency percentile window length for /metrics?window=1")
	flag.Parse()

	// One registry is shared by every layer — front end, coordinators,
	// embedded workers, supervision monitors and the journal — so the
	// debug listener and the metrics wire command see the whole process.
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

	clusterCfg := cluster.Config{D: *d, Engine: *engine, Budget: *budget, Replicas: *replicas,
		Metrics: reg, Tracer: tracer}

	// The pool both places replicas (and failover re-ships) and supplies
	// each session's primary workers, so all worker sessions share one
	// load-tracked endpoint set.
	var pool *ha.Pool
	var workerCount int
	if *workers != "" {
		addrs := strings.Split(*workers, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		pool = ha.NewDialPool(addrs)
		workerCount = len(addrs)
		log.Printf("qgpcluster: using %d TCP worker endpoints: %s", len(addrs), *workers)
		// The coordinator cannot configure remote workers; a stock qgpd
		// keeps its default 16-watch session cap, so tenants collectively
		// hit it early (each rejection is returned to that one caller; the
		// shared cluster stays up).
		log.Printf("qgpcluster: shared multi-tenant session over remote workers: run each qgpd with -max-watches -1, or watch registrations are capped by the workers' per-session default")
	} else {
		if *spawn < 1 {
			log.Fatalf("qgpcluster: -spawn must be at least 1")
		}
		// Embedded workers idle as long as the front-end session lives;
		// don't let the worker-side idle timeout cut them off. The shared
		// session aggregates every tenant's watches in one worker session,
		// so the per-session watch cap is lifted — quotas are per tenant
		// at the front end.
		pool = ha.NewSpawnPool(*spawn, server.Config{IdleTimeout: 24 * time.Hour, MaxWatches: -1, Metrics: reg})
		workerCount = *spawn
		log.Printf("qgpcluster: spawning %d embedded workers per session", *spawn)
	}
	clusterCfg.Pool = pool
	newWorkers := func() ([]cluster.Transport, error) { return pool.Primaries(workerCount) }

	feCfg := cluster.FrontendConfig{
		Cluster:    clusterCfg,
		NewWorkers: newWorkers,
		Tenancy: tenant.Config{
			MaxTenants:     *maxTenants,
			IdleTimeout:    *tenantIdle,
			RateQPS:        *tenantQPS,
			RateBurst:      *tenantBurst,
			AffectedPerSec: *tenantAffected,
			AffectedBurst:  *tenantAffectedBurst,
			MaxPendingIDs:  *tenantInbox,
			Logf:           log.Printf,
			Metrics:        reg,
		},
		MaxGraphSize: *maxGraph,
		IdleTimeout:  *idle,
	}

	// Live monitors are tracked so /healthz can report supervision
	// activity (passes, failovers, uptime) next to the topology.
	var mmu sync.Mutex
	monitors := make(map[*ha.Monitor]bool)
	if *supervise > 0 {
		interval := *supervise
		feCfg.OnSession = func(c *cluster.Coordinator) func() {
			m := ha.NewMonitor(c, ha.MonitorConfig{Interval: interval, Logf: log.Printf, Metrics: reg})
			m.Start()
			mmu.Lock()
			monitors[m] = true
			mmu.Unlock()
			return func() {
				mmu.Lock()
				delete(monitors, m)
				mmu.Unlock()
				m.Stop()
			}
		}
	}

	var journal *ha.Journal
	if *journalDir != "" {
		var err error
		journal, err = ha.OpenJournal(*journalDir, ha.JournalOptions{Fsync: *fsync, CompactBytes: *compactBytes, Metrics: reg})
		if err != nil {
			log.Fatalf("qgpcluster: %v", err)
		}
		durable := &cluster.DurableState{Journal: journal}
		if journal.HasState() {
			durable.Graph = journal.Graph()
			durable.Watches = journal.Watches()
			info := journal.Recovery()
			log.Printf("qgpcluster: recovered %d nodes / %d watches from %s (journal records applied: %d, torn tail: %v)",
				durable.Graph.NumNodes(), len(durable.Watches), *journalDir, info.Applied, info.TornTail)
		} else {
			log.Printf("qgpcluster: journaling to fresh directory %s", *journalDir)
		}
		feCfg.Durable = durable
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("qgpcluster: %v", err)
	}
	fe := cluster.NewFrontend(feCfg)
	log.Printf("qgpcluster: listening on %s (d=%d, replicas=%d)", ln.Addr(), *d, *replicas)

	// Startup gauges, so /metrics is non-empty before the first request.
	reg.Gauge("cluster.config.workers").Set(int64(workerCount))
	reg.Gauge("cluster.config.replicas").Set(int64(*replicas))
	reg.Gauge("cluster.config.d").Set(int64(*d))

	var debug *obs.DebugServer
	if *debugAddr != "" {
		health := func() (interface{}, error) {
			doc, err := fe.Health()
			out := map[string]interface{}{"cluster": doc}
			// Per-tenant rows (watches, pending inbox sizes, throttle and
			// overflow counts) next to the topology, so one curl answers
			// "who is being limited and who is not draining".
			if rows := fe.Tenants().List(); len(rows) > 0 {
				out["tenants"] = rows
			}
			mmu.Lock()
			stats := make([]ha.MonitorStats, 0, len(monitors))
			for m := range monitors {
				stats = append(stats, m.Stats())
			}
			mmu.Unlock()
			if len(stats) > 0 {
				out["monitors"] = stats
			}
			return out, err
		}
		debug, err = obs.Serve(*debugAddr, obs.HandlerConfig{
			Registry: reg,
			Health:   health,
			Traces:   traces,
			Windows:  windows,
		})
		if err != nil {
			log.Fatalf("qgpcluster: debug listener: %v", err)
		}
		log.Printf("qgpcluster: debug endpoint on http://%s (/metrics /healthz /debug/traces /debug/pprof)", debug.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- fe.Serve(ln) }()

	select {
	case sig := <-sigc:
		log.Printf("qgpcluster: %v, shutting down", sig)
	case err := <-errc:
		log.Printf("qgpcluster: serve: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	exitCode := 0
	if debug != nil {
		debug.Close()
	}
	if err := fe.Shutdown(ctx); err != nil {
		log.Printf("qgpcluster: shutdown: %v", err)
		exitCode = 1
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			log.Printf("qgpcluster: journal close: %v", err)
			exitCode = 1
		}
	}
	os.Exit(exitCode)
}
