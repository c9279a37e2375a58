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
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
)

// FrontendConfig tunes a Frontend.
type FrontendConfig struct {
	// Cluster is the coordinator configuration applied to the shared
	// session (including Replicas, Pool and, for a durable session,
	// Journal). Watch quotas are per tenant (Tenancy); the workers hold
	// every tenant's watches in one session each, so they need their
	// own cap lifted (server.Config.MaxWatches < 0).
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
// least-loaded live copy of each fragment; every live copy holds every
// accepted update, so a session never misses its own.
//
// Requests go through qgpd's command table (server.Table) over one conn
// per connection, so the two servers answer a request alike; the table
// refuses the commands that need a local graph (pmatch, rule, rpqfilter,
// fragment), and the front end adds the session vocabulary.
type Frontend struct {
	*server.Host
	cfg     FrontendConfig
	table   *server.Table
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
	f := &Frontend{cfg: cfg, table: server.NewTable(cfg.MaxGraphSize, cfg.Cluster.Metrics, cfg.Cluster.Tracer)}
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

// conn is one front end connection: the command table's Backend over the
// shared cluster session, attached to one tenant. A connection serves one
// request at a time, so conn needs no lock.
type conn struct {
	f         *Frontend
	tenant    string       // attached tenant session; "" until first use
	ephemeral bool         // created for this connection; evict on disconnect
	coord     *Coordinator // the shared coordinator, as Ready found it for this request
}

// openConn starts one connection (server.Host calls it per connection). A
// dropped connection — graceful or abrupt — releases the tenant
// attachment: an ephemeral session is evicted with its last connection, a
// named one lingers until idle timeout.
func (f *Frontend) openConn() (func(*server.Request) server.Response, func()) {
	c := &conn{f: f}
	return f.table.Handler(c), func() {
		if c.tenant != "" {
			f.tenants.Release(c.tenant, c.ephemeral)
		}
	}
}

// ensureTenant lazily attaches the connection to a fresh ephemeral
// session: a client that never sends the session command still gets a
// private watch namespace, scoped to its connection.
func (c *conn) ensureTenant() error {
	if c.tenant != "" {
		return nil
	}
	name, err := c.f.tenants.Attach("")
	if err != nil {
		return err
	}
	c.tenant, c.ephemeral = name, true
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

// Ready snapshots the shared coordinator for the request, after durable
// recovery has restored the tenants' watch tables.
func (c *conn) Ready() error {
	coord, err := c.f.sharedCoordinator()
	c.coord = coord
	return err
}

// Admit attaches the connection first, so even a session-less client's
// first match is accounted to (and limited by) its ephemeral tenant. Drains
// are free: refusing deltas would keep a throttled tenant's inbox full.
func (c *conn) Admit(class string) error {
	if err := c.ensureTenant(); err != nil {
		return err
	}
	return c.f.tenants.Admit(c.tenant, class)
}

// Served books the latency in the tenant's match.ms or update.ms; a
// refusal costing microseconds would mask the tenant's service latency.
func (c *conn) Served(class string, start time.Time) {
	c.f.tenants.Observe(c.tenant, class, start)
}

// SetGraph rebuilds the one cluster over g (gen, load), which the new
// coordinator adopts, and resets every tenant's watch table: their watches
// died with the old coordinator.
func (c *conn) SetGraph(g *graph.Graph) (nodes, edges int, err error) {
	f := c.f
	f.smu.Lock()
	defer f.smu.Unlock()
	if d := f.cfg.Durable; d != nil { // an explicit graph supersedes journal recovery
		d.Graph, d.Watches = nil, nil
	}
	coord, err := f.buildCluster(g, false)
	if err != nil {
		return 0, 0, err
	}
	f.tenants.Reset()
	nodes, edges = coord.Size()
	return nodes, edges, nil
}

// Match counts a read for the tenant and routes it across fragment copies.
func (c *conn) Match(req *server.Request, tr *obs.Trace) (server.Answer, error) {
	q, err := core.Parse(req.Pattern)
	if err != nil {
		return server.Answer{}, err
	}
	c.f.tenants.NoteRead(c.tenant)
	opts := &MatchOptions{Engine: req.Engine, Budget: req.Budget}
	res, err := c.coord.matchWith(q, opts, tr)
	if err != nil {
		return server.Answer{}, err
	}
	return server.Answer{Matches: res.Matches, Metrics: &res.Metrics}, nil
}

// Update returns the writer only its own namespace's deltas (other tenants
// drain theirs).
func (c *conn) Update(req *server.Request, resp *server.Response, tr *obs.Trace) error {
	// Coordinator→worker routing, not client vocabulary: refused, not dropped.
	if len(req.Owned) > 0 {
		return fmt.Errorf("update field owned is not served by the cluster front end; the coordinator computes routing itself")
	}
	res, err := c.coord.update(req.Updates, tr)
	if err != nil {
		return err
	}
	tenants := c.f.tenants
	resp.Nodes, resp.Edges = res.Nodes, res.Edges
	resp.Deltas = tenants.RecordDeltas(c.tenant, res.Deltas)
	tenants.NoteWrite(c.tenant, res.Version)
	// Post-paid: the batch's real cost is known now (tenant.Config.AffectedPerSec).
	tenants.ChargeAffected(c.tenant, res.AffectedSize)
	resp.Session = c.tenant
	return nil
}

// Watch registers in the tenant's namespace; the manager registers the
// global name through the front end (tenant.Registrar).
func (c *conn) Watch(name string, q *core.Pattern, resp *server.Response) ([]graph.NodeID, error) {
	answers, err := c.f.tenants.Watch(c.tenant, name, q)
	if err != nil {
		return nil, err
	}
	resp.Session = c.tenant
	return answers, nil
}

func (c *conn) Unwatch(name string) error {
	if err := c.ensureTenant(); err != nil {
		return err
	}
	return c.f.tenants.Unwatch(c.tenant, name)
}

// Stats is routed to fragment copies like a match.
func (c *conn) Stats(tr *obs.Trace) (*server.StatsSummary, error) {
	return c.coord.stats(tr)
}

// Partition reports the live fragmentation, whatever the request names.
func (c *conn) Partition(*server.Request) ([]int, error) {
	return c.coord.FragmentSizes(), nil
}

func (c *conn) Explain(q *core.Pattern, tr *obs.Trace) (any, error) {
	return c.coord.explain(q, tr)
}

// Ping reports liveness only: the cluster's state is /healthz's.
func (c *conn) Ping(*server.Response) {}

func (c *conn) Session(req *server.Request, resp *server.Response) error {
	tenants := c.f.tenants
	name, err := tenants.Attach(req.Session)
	if err != nil {
		return err
	}
	switch {
	case c.tenant == name:
		// Re-attach to the current session: drop the extra hold.
		tenants.Release(name, false)
	case c.tenant != "":
		tenants.Release(c.tenant, c.ephemeral)
		fallthrough
	default:
		c.tenant, c.ephemeral = name, req.Session == ""
	}
	resp.Session = name
	return nil
}

func (c *conn) Sessions(_ *server.Request, resp *server.Response) error {
	resp.Tenants = c.f.tenants.List()
	return nil
}

func (c *conn) EndSession(req *server.Request, resp *server.Response) error {
	target := req.Session
	if target == "" {
		if c.tenant == "" {
			return errors.New("endsession: no session attached to this connection")
		}
		target = c.tenant
	}
	c.f.tenants.Evict(target)
	if target == c.tenant {
		c.tenant, c.ephemeral = "", false
	}
	resp.Session = target
	return nil
}

func (c *conn) Deltas(_ *server.Request, resp *server.Response) error {
	if err := c.ensureTenant(); err != nil {
		return err
	}
	ds, err := c.f.tenants.Drain(c.tenant)
	if err != nil {
		return err
	}
	resp.Deltas = ds
	resp.Session = c.tenant
	return nil
}
