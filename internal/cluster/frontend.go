package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/tenant"
)

// FrontendConfig tunes a Frontend.
type FrontendConfig struct {
	// Cluster is the coordinator configuration applied to the shared
	// session (including Replicas, Pool and, for a durable session,
	// Journal). A zero MaxWatches is lifted to unlimited: the one
	// coordinator aggregates every tenant's watches, and quotas are
	// enforced per tenant by the session manager instead.
	Cluster Config
	// NewWorkers supplies a fresh set of worker transports for a
	// cluster's coordinator. Required. The coordinator built over them
	// owns and closes them.
	NewWorkers func() ([]Transport, error)
	// Tenancy tunes the shared session's tenant manager (quotas, idle
	// eviction). Zero values take the tenant package defaults; Logf and
	// Metrics default to this config's Logf and Cluster.Metrics.
	Tenancy tenant.Config
	// Durable, when non-nil, backs the shared session with a journal:
	// updates are journaled before fan-out and a restarted front end
	// resumes from the recovered graph and watches.
	Durable *DurableState
	// OnSession, when set, is called with each coordinator the front
	// end builds; the returned stop function is called when that
	// coordinator is replaced or the front end shuts down. internal/ha
	// attaches its health monitor here.
	OnSession func(*Coordinator) (stop func())
	// MaxLineBytes bounds one request line (default 64 MiB).
	MaxLineBytes int
	// MaxGraphSize bounds |V|+|E| of gen/load graphs (default 50M).
	MaxGraphSize int
	// IdleTimeout closes connections with no request for this long
	// (default 5 minutes).
	IdleTimeout time.Duration
	// Logf receives diagnostics; nil means log.Printf.
	Logf func(format string, args ...interface{})
}

// DurableState is the journal backing of a durable front-end session:
// the journal that receives graph, update and watch records, and the
// state recovered from it at startup (nil/empty on a fresh directory).
type DurableState struct {
	Journal UpdateJournal
	// Graph is the recovered authoritative graph to serve immediately,
	// nil when the journal directory held no state.
	Graph *graph.Graph
	// Watches maps recovered watch names to their pattern DSL; they are
	// re-registered when the recovered graph's cluster is built. Names
	// are coordinator-global: tenant-encoded (tenant.GlobalName) when
	// written by this build, bare legacy names from older journals.
	// Graph and Watches are read once: the front end nils both when
	// recovery has succeeded or gen/load has superseded it.
	Watches map[string]string
}

// Frontend exposes a Coordinator through the qgpd wire protocol, so any
// existing client (internal/client, netcat, the examples) can talk to a
// cluster exactly as it talks to a single server. Serve and ServeConn are
// the embedded server.Host's — the listener lifecycle and request loop
// qgpd runs — so framing cannot diverge between qgpd and qgpcluster.
//
// Every connection shares ONE cluster session — one fragmentation, one
// coordinator write path — and the tenant layer (internal/tenant) gives
// each connection (or named session, via the session command) a private
// watch namespace with quotas and lifecycle. Reads are routed to the
// least-loaded live copy of each fragment, fenced by the tenant's last
// write so a session never misses its own update.
//
// Commands gen, load, match, update, watch, unwatch, stats, partition,
// metrics, explain, profile, ping, session, sessions, endsession and
// deltas are served; commands that only make sense against a local graph
// (pmatch, rule, rpqfilter) report an error naming the limitation.
type Frontend struct {
	*server.Host
	cfg     FrontendConfig
	tenants *tenant.Manager

	// smu guards the shared session's bookkeeping (rebuilds, lazy durable
	// recovery); requests snapshot the coordinator under smu and then run
	// concurrently — the coordinator's own RWMutex serializes writes
	// against routed reads.
	smu sync.Mutex
	// coord is the shared coordinator, nil until gen, load or durable
	// recovery builds it. Written under smu; atomic so Health can read it
	// while a rebuild holds smu.
	coord atomic.Pointer[Coordinator]
	stop  func() // OnSession cleanup for coord (e.g. a health monitor)
}

// NewFrontend returns a front-end server for the shared cluster session.
func NewFrontend(cfg FrontendConfig) *Frontend {
	if cfg.MaxGraphSize <= 0 {
		cfg.MaxGraphSize = 50_000_000
	}
	f := &Frontend{cfg: cfg}
	f.Host = server.NewHost(server.ProtocolConfig{
		MaxLineBytes: cfg.MaxLineBytes,
		IdleTimeout:  cfg.IdleTimeout,
		Logf:         cfg.Logf,
		Name:         "cluster frontend",
	}, f.openConn)
	tcfg := cfg.Tenancy
	if tcfg.Logf == nil {
		tcfg.Logf = f.Logf
	}
	if tcfg.Metrics == nil {
		tcfg.Metrics = cfg.Cluster.Metrics
	}
	f.tenants = tenant.NewManager(tcfg, f)
	f.tenants.Start()
	return f
}

// Tenants exposes the shared session's tenant manager for supervision
// and tests.
func (f *Frontend) Tenants() *tenant.Manager { return f.tenants }

// Shutdown stops accepting, closes the listener and all connections,
// waits for in-flight handlers (or the context), and releases the shared
// session's coordinator and workers.
func (f *Frontend) Shutdown(ctx context.Context) error {
	// Stop the idle sweeper before waiting on handlers: it does not
	// depend on them, and the deadline return below must not leak a
	// goroutine that would keep evicting (Unwatch round trips) against a
	// coordinator the caller is about to close. The sweeper never blocks
	// indefinitely — an in-flight EvictIdle's fan-outs run against the
	// still-open shared session with bounded failover retries.
	f.tenants.Stop()
	if err := f.Host.Shutdown(ctx); err != nil {
		// A handler may still hold smu; skip the shared teardown rather
		// than block past the caller's deadline.
		return err
	}
	// All handlers have returned, so smu is free.
	f.smu.Lock()
	f.closeClusterLocked()
	f.smu.Unlock()
	return nil
}

// closeClusterLocked tears the shared cluster down: the supervisor hook
// is stopped and the coordinator releases every worker transport it owns
// (including any pool-acquired replicas). Callers hold smu.
func (f *Frontend) closeClusterLocked() {
	if f.stop != nil {
		f.stop()
		f.stop = nil
	}
	if coord := f.coord.Swap(nil); coord != nil {
		coord.Close()
	}
}

// connState is one connection's tenant attachment. A connection serves
// one request at a time, so connState needs no lock.
type connState struct {
	tenant    string // attached tenant session; "" until first use
	ephemeral bool   // created for this connection; evict on disconnect
}

// openConn starts one connection's state (server.Host calls it per
// connection). A dropped connection — graceful or abrupt — releases the
// tenant attachment: an ephemeral session is evicted with its last
// connection, a named one lingers until idle timeout.
func (f *Frontend) openConn() (func(*server.Request) server.Response, func()) {
	cs := &connState{}
	handle := func(req *server.Request) server.Response { return f.handle(cs, req) }
	return handle, func() {
		if cs.tenant != "" {
			f.tenants.Release(cs.tenant, cs.ephemeral)
		}
	}
}

func (f *Frontend) handle(cs *connState, req *server.Request) server.Response {
	start := time.Now()
	var resp server.Response
	err := f.dispatch(cs, req, &resp)
	if err != nil {
		resp.Error = err.Error()
		var thr *tenant.ErrThrottled
		if errors.As(err, &thr) {
			// Typed retry-after on the wire: a throttled client backs off
			// this long instead of guessing (or hammering).
			resp.RetryAfterMS = float64(thr.RetryAfter.Microseconds()) / 1000
		}
	} else if cs.tenant != "" {
		// Per-tenant latency: served commands land in the tenant's
		// match.ms/update.ms histograms (windowed p95 via obs.Windows).
		// Errors and rejections stay out — a throttle refusal costing
		// microseconds would mask the tenant's real service latency.
		if op := observeClass(req); op != "" {
			f.tenants.Observe(cs.tenant, op, start)
		}
	}
	resp.ElapsedMS = server.MsSince(start)
	return resp
}

// admissionClass maps a wire command to its admission-control class:
// "update" for writes, "match" for routed reads, "" for free commands.
// Drains are deliberately free — refusing deltas would keep a throttled
// tenant's inbox full, the opposite of what the bounded-inbox design
// wants — as are the session and observability commands.
func admissionClass(req *server.Request) string {
	switch req.Cmd {
	case "update":
		return "update"
	case "match", "explain":
		return "match"
	case "profile":
		if len(req.Updates) > 0 {
			return "update"
		}
		return "match"
	}
	return ""
}

// observeClass is admissionClass plus watch registrations, whose
// initial-answer evaluation is read work.
func observeClass(req *server.Request) string {
	if req.Cmd == "watch" {
		return "match"
	}
	return admissionClass(req)
}

// dispatch serves one command against the shared cluster session,
// multiplexed across connections by the tenant manager.
func (f *Frontend) dispatch(cs *connState, req *server.Request, resp *server.Response) error {
	// Commands the front end or the tenant layer answers by itself.
	switch req.Cmd {
	case "ping":
		resp.Pong = true
		return nil
	case "gen", "load":
		return f.handleGraph(req, resp)
	case "metrics":
		resp.Obs = f.cfg.Cluster.Metrics.JSON()
		return nil
	case "session":
		return f.handleSession(cs, req, resp)
	case "sessions":
		resp.Tenants = f.tenants.List()
		return nil
	case "endsession":
		return f.handleEndSession(cs, req, resp)
	case "deltas":
		if err := f.ensureTenant(cs); err != nil {
			return err
		}
		ds, err := f.tenants.Drain(cs.tenant)
		if err != nil {
			return err
		}
		resp.Deltas = ds
		resp.Session = cs.tenant
		return nil
	}

	// Everything else runs against the shared coordinator, so a missing
	// graph is reported before anything command-specific — and durable
	// recovery has restored the tenants' watch tables before watch or
	// unwatch consults them.
	coord, err := f.sharedCoordinator()
	if err != nil {
		return err
	}
	// Admission control for the commands that cost the shared cluster
	// work. Attaching first means even a session-less client's first
	// match is accounted to (and limited by) its ephemeral tenant.
	if op := admissionClass(req); op != "" {
		if err := f.ensureTenant(cs); err != nil {
			return err
		}
		if err := f.tenants.Admit(cs.tenant, op); err != nil {
			return err
		}
	}
	switch req.Cmd {
	case "match":
		return f.handleMatch(coord, cs, req, resp, false)
	case "update":
		return f.handleUpdate(coord, cs, req, resp, false)
	case "profile":
		// Like the single server's profile command: an update batch
		// profiles the maintenance pipeline, a pattern profiles a match.
		switch {
		case len(req.Updates) > 0:
			return f.handleUpdate(coord, cs, req, resp, true)
		case req.Pattern != "":
			return f.handleMatch(coord, cs, req, resp, true)
		}
		return fmt.Errorf("profile: request carries neither a pattern nor an update batch")
	case "watch":
		if err := f.ensureTenant(cs); err != nil {
			return err
		}
		if err := f.tenants.Admit(cs.tenant, "watch"); err != nil {
			return err
		}
		q, err := core.Parse(req.Pattern)
		if err != nil {
			return err
		}
		// The tenant manager registers the encoded global name through
		// this front end (tenant.Registrar), reaching the shared
		// coordinator underneath.
		answers, err := f.tenants.Watch(cs.tenant, req.Watch, q)
		if err != nil {
			return err
		}
		server.FillMatches(resp, answers, req.Limit)
		resp.Session = cs.tenant
		return nil
	case "unwatch":
		if err := f.ensureTenant(cs); err != nil {
			return err
		}
		return f.tenants.Unwatch(cs.tenant, req.Watch)
	case "stats":
		return f.handleStats(coord, cs, req, resp)
	case "partition":
		return f.handlePartition(coord, resp)
	case "explain":
		return f.handleExplain(coord, req, resp)
	case "pmatch", "rule", "rpqfilter", "fragment":
		return fmt.Errorf("command %q is not served by the cluster front end; connect to a worker qgpd for it", req.Cmd)
	default:
		return fmt.Errorf("unknown command %q", req.Cmd)
	}
}

// ensureTenant lazily attaches the connection to a fresh ephemeral
// session: a client that never sends the session command still gets a
// private watch namespace and a read-your-writes fence, scoped to its
// connection.
func (f *Frontend) ensureTenant(cs *connState) error {
	if cs.tenant != "" {
		return nil
	}
	name, err := f.tenants.Attach("")
	if err != nil {
		return err
	}
	cs.tenant, cs.ephemeral = name, true
	return nil
}

func (f *Frontend) handleSession(cs *connState, req *server.Request, resp *server.Response) error {
	name, err := f.tenants.Attach(req.Session)
	if err != nil {
		return err
	}
	switch {
	case cs.tenant == name:
		// Re-attach to the current session: drop the extra hold.
		f.tenants.Release(name, false)
	case cs.tenant != "":
		f.tenants.Release(cs.tenant, cs.ephemeral)
		fallthrough
	default:
		cs.tenant, cs.ephemeral = name, req.Session == ""
	}
	resp.Session = name
	return nil
}

func (f *Frontend) handleEndSession(cs *connState, req *server.Request, resp *server.Response) error {
	target := req.Session
	if target == "" {
		if cs.tenant == "" {
			return errors.New("endsession: no session attached to this connection")
		}
		target = cs.tenant
	}
	f.tenants.Evict(target)
	if target == cs.tenant {
		cs.tenant, cs.ephemeral = "", false
	}
	resp.Session = target
	return nil
}

// sharedCoordinator returns a snapshot of the shared session's current
// coordinator, applying lazy durable recovery on first use. A failed
// recovery is returned to the requesting client and retried on the next
// request.
func (f *Frontend) sharedCoordinator() (*Coordinator, error) {
	f.smu.Lock()
	defer f.smu.Unlock()
	if err := f.recoverLocked(); err != nil {
		return nil, err
	}
	coord := f.coord.Load()
	if coord == nil {
		return nil, server.ErrNoGraph
	}
	return coord, nil
}

// recoverLocked builds the shared cluster from journal-recovered state on
// the first request after a durable restart: Recover re-fragments,
// re-ships and re-registers every recovered watch under its global name,
// and the tenant manager rebuilds its per-session watch tables from the
// same names. The recovered copies are then dropped: a nil Durable.Graph
// is "nothing (left) to recover". Callers hold smu.
func (f *Frontend) recoverLocked() error {
	d := f.cfg.Durable
	if d == nil || d.Graph == nil {
		return nil
	}
	if _, err := f.buildCluster(d.Graph, true); err != nil {
		return fmt.Errorf("recovering journaled cluster: %w", err)
	}
	f.tenants.Restore(d.Watches)
	d.Graph, d.Watches = nil, nil
	return nil
}

// handleGraph serves gen and load: the one cluster is rebuilt and every
// tenant's watch table reset (their watches and version fences died with
// the old coordinator).
func (f *Frontend) handleGraph(req *server.Request, resp *server.Response) error {
	g, err := server.BuildGraph(req, f.cfg.MaxGraphSize)
	if err != nil {
		return err
	}
	f.smu.Lock()
	defer f.smu.Unlock()
	if d := f.cfg.Durable; d != nil { // an explicit graph supersedes journal recovery
		d.Graph, d.Watches = nil, nil
	}
	coord, err := f.buildCluster(g, false)
	if err != nil {
		return err
	}
	f.tenants.Reset()
	resp.Nodes, resp.Edges = coord.Size()
	return nil
}

// Watch implements tenant.Registrar: tenant watches land on the current
// shared coordinator under their encoded global names. Indirecting
// through the front end rather than capturing a coordinator keeps the
// registrar valid across graph rebuilds.
func (f *Frontend) Watch(name string, q *core.Pattern) ([]graph.NodeID, error) {
	coord, err := f.sharedCoordinator()
	if err != nil {
		return nil, err
	}
	return coord.Watch(name, q)
}

// Unwatch implements tenant.Registrar.
func (f *Frontend) Unwatch(name string) error {
	coord, err := f.sharedCoordinator()
	if err != nil {
		return err
	}
	return coord.Unwatch(name)
}

// ClusterHealth is the shared cluster's slice of the front end's
// /healthz document.
type ClusterHealth struct {
	Fragments []FragmentHealth `json:"fragments"`
	Error     string           `json:"error,omitempty"`
}

// Health reports the topology and per-fragment liveness of the shared
// cluster, shaped for the debug listener's /healthz endpoint. With no
// cluster yet (no client has loaded a graph) the document is healthy but
// empty. The error is non-nil — a 503 from the debug handler — when the
// coordinator has fail-stopped or a fragment's primary fails its probe.
func (f *Frontend) Health() (interface{}, error) {
	doc := struct {
		Status   string          `json:"status"`
		Sessions int             `json:"sessions"`
		Clusters []ClusterHealth `json:"clusters,omitempty"`
	}{Status: "ok"}
	coord := f.coord.Load()
	if coord == nil {
		return doc, nil
	}
	fhs, err := coord.Health()
	ch := ClusterHealth{Fragments: fhs}
	if err != nil {
		ch.Error = err.Error()
	} else {
		for _, fh := range fhs {
			if !fh.PrimaryAlive {
				err = fmt.Errorf("fragment %d primary failed its probe: %s", fh.Fragment, fh.PrimaryError)
				break
			}
		}
	}
	doc.Sessions, doc.Clusters = 1, []ClusterHealth{ch}
	if err != nil {
		doc.Status = "degraded"
	}
	return doc, err
}

// buildCluster replaces the shared coordinator with a fresh one over g:
// fresh worker transports, and for a durable front end the journal is
// attached. A gen/load graph goes through New, which makes g the durable
// graph and clears the durable watch set; the recovered graph goes through
// Recover, which leaves the journal as it found it. Callers hold smu.
func (f *Frontend) buildCluster(g *graph.Graph, recovered bool) (*Coordinator, error) {
	// The old cluster's sessions are released first: a failed rebuild
	// leaves the front end refusing queries (server.ErrNoGraph via the nil
	// coordinator) rather than serving a graph the client believes it
	// replaced.
	f.closeClusterLocked()
	ts, err := f.cfg.NewWorkers()
	if err != nil {
		return nil, fmt.Errorf("workers: %w", err)
	}
	if len(ts) == 0 {
		return nil, errors.New("workers: NewWorkers returned an empty set")
	}
	ccfg := f.cfg.Cluster
	ccfg.Journal = nil
	if f.cfg.Durable != nil {
		ccfg.Journal = f.cfg.Durable.Journal
	}
	if ccfg.MaxWatches == 0 {
		// The shared coordinator aggregates every tenant's watches;
		// quotas are per tenant in the manager, so the per-session cap
		// makes no sense here. An explicit positive cap is respected.
		ccfg.MaxWatches = -1
	}
	var coord *Coordinator
	if recovered {
		coord, err = Recover(g, f.cfg.Durable.Watches, ts, ccfg)
	} else {
		coord, err = New(g, ts, ccfg)
	}
	if err != nil {
		CloseAll(ts) // construction failed: ownership stayed with us
		return nil, err
	}
	f.coord.Store(coord)
	if f.cfg.OnSession != nil {
		f.stop = f.cfg.OnSession(coord)
	}
	return coord, nil
}

// handleMatch serves match and (profile true) the pattern form of
// profile, whose merged cluster-level document travels in Profile with
// each worker's own document embedded verbatim.
func (f *Frontend) handleMatch(coord *Coordinator, cs *connState, req *server.Request, resp *server.Response, profile bool) error {
	q, err := core.Parse(req.Pattern)
	if err != nil {
		return err
	}
	opts := &MatchOptions{Engine: req.Engine, Budget: req.Budget, Planner: req.Planner}
	if cs.tenant != "" {
		// An attached tenant's reads are fenced at its last accepted
		// write, so replica routing can never serve it a copy that
		// predates its own update.
		opts.MinVersion = f.tenants.NoteRead(cs.tenant)
	}
	var res *MatchResult
	var prof *MatchProfile
	if profile {
		res, prof, err = coord.ProfileMatch(q, opts)
	} else {
		res, err = coord.MatchWith(q, opts)
	}
	if err != nil {
		return err
	}
	server.FillMatches(resp, res.Matches, req.Limit)
	resp.Metrics = &res.Metrics
	if profile {
		return server.MarshalProfile(resp, prof)
	}
	return nil
}

// handleUpdate serves update and (profile true) the batch form of
// profile. The writer gets only its own namespace's deltas back (other
// tenants drain theirs with the deltas command) and its fence advances
// to the batch's version token.
func (f *Frontend) handleUpdate(coord *Coordinator, cs *connState, req *server.Request, resp *server.Response, profile bool) error {
	// The combined-batch fields are coordinator→worker routing, not
	// client vocabulary: the coordinator computes assignment and the
	// affected set itself. Reject rather than silently drop them, as
	// with the other worker-only commands.
	if len(req.Owned) > 0 || req.Scoped || len(req.Affected) > 0 {
		return fmt.Errorf("update fields owned/scoped/affected are not served by the cluster front end; the coordinator computes routing itself")
	}
	var res *UpdateResult
	var prof *UpdateProfile
	var err error
	if profile {
		res, prof, err = coord.UpdateProfiled(req.Updates)
	} else {
		res, err = coord.Update(req.Updates)
	}
	if err != nil {
		return err
	}
	resp.Nodes, resp.Edges = res.Nodes, res.Edges
	resp.Deltas = f.tenants.RecordDeltas(cs.tenant, res.Deltas)
	f.tenants.NoteWrite(cs.tenant, res.Version)
	// Post-paid budget accounting: the batch's real cost — the size of
	// the re-verification region the coordinator computed — is debited
	// now that it is known. See tenant.Config.AffectedPerSec.
	f.tenants.ChargeAffected(cs.tenant, res.AffectedSize)
	resp.Session = cs.tenant
	if profile {
		return server.MarshalProfile(resp, prof)
	}
	return nil
}

// handleExplain fans the plan-only command out and returns the merged
// per-fragment plan documents in Profile.
func (f *Frontend) handleExplain(coord *Coordinator, req *server.Request, resp *server.Response) error {
	q, err := core.Parse(req.Pattern)
	if err != nil {
		return err
	}
	ex, err := coord.Explain(q)
	if err != nil {
		return err
	}
	return server.MarshalProfile(resp, ex)
}

// handleStats fans out to the fragment copies through the replica-read
// router (Coordinator.Stats), so a stats burst neither pins the
// front-end process nor blocks behind writers, and renders through
// server.FillStatsRows — the TopK cap and output format are the single
// server's code path.
func (f *Frontend) handleStats(coord *Coordinator, cs *connState, req *server.Request, resp *server.Response) error {
	var minV uint64
	if cs.tenant != "" {
		// Fenced like a match: a tenant's stats reflect its own writes
		// even when served from a replica.
		minV = f.tenants.Fence(cs.tenant)
	}
	cst, err := coord.Stats(minV)
	if err != nil {
		return err
	}
	server.FillStatsRows(resp, cst.Nodes, cst.Edges, cst.Labels, cst.Rows, req.TopK)
	return nil
}

// handlePartition reports the live fragmentation. Pure coordinator
// bookkeeping under its read lock — no worker round trips, so nothing
// to route.
func (f *Frontend) handlePartition(coord *Coordinator, resp *server.Response) error {
	sizes := coord.FragmentSizes()
	resp.Fragments = sizes
	// Skew over non-empty fragments only (partition.SkewOf, shared with
	// the partition command): an empty fragment means the graph populated
	// fewer workers, not that a balanced partition is maximally skewed.
	resp.Skew = partition.SkewOf(sizes)
	return nil
}
