// Package server exposes quantified graph pattern matching over TCP with
// a newline-delimited JSON protocol. Each connection is a session holding
// one graph; queries on a session run sequentially while sessions run
// concurrently, bounded by a server-wide semaphore so a burst of
// expensive pattern queries cannot exhaust the machine. Every query runs
// under an extension budget (Config.DefaultBudget) so a pathological
// pattern returns an error instead of hanging the session.
package server

import (
	"cmp"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rpq"
	"repro/internal/rules"
	"repro/internal/stats"
)

// Config tunes a server.
type Config struct {
	// MaxConcurrent bounds simultaneously executing queries across all
	// connections (default 4).
	MaxConcurrent int
	// DefaultBudget is the extension budget applied to queries that do
	// not set one (default 50M attempts). 0 keeps the default; -1
	// disables budgeting.
	DefaultBudget int64
	// MaxLineBytes bounds one request line (default 64 MiB).
	MaxLineBytes int
	// MaxGraphSize bounds |V|+|E| of gen/load graphs (default 50M).
	MaxGraphSize int
	// IdleTimeout closes connections with no request for this long
	// (default 5 minutes).
	IdleTimeout time.Duration
	// MaxWatches caps the standing patterns one session holds. 0 keeps
	// the historical default of 16; a negative value lifts the cap —
	// the multi-tenant cluster front end multiplexes many tenant
	// namespaces over one worker session and enforces per-tenant quotas
	// itself.
	MaxWatches int
	// Logf receives server diagnostics; nil means log.Printf.
	Logf func(format string, args ...interface{})
	// Metrics, when set, receives per-command counts, error counts and
	// latency histograms (server.cmd.<cmd>.count / .errors / .ms), and
	// is what the metrics wire command and a -debug-addr /metrics
	// endpoint export. Nil disables instrumentation at zero cost.
	Metrics *obs.Registry
	// Tracer, when set, opens one trace per handled request (op = the
	// command name), so a standalone qgpd gets the same per-request
	// trace log lines and /debug/traces retention the cluster
	// coordinator has. Nil disables tracing at zero cost.
	Tracer *obs.Tracer
}

func (c *Config) fill() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.DefaultBudget == 0 {
		c.DefaultBudget = 50_000_000
	}
	if c.MaxGraphSize <= 0 {
		c.MaxGraphSize = 50_000_000
	}
}

// Server serves the QGP query protocol. Serve, ServeConn and Shutdown are
// the embedded Host's; each connection is one session, served through the
// command table (commands.go).
type Server struct {
	*Host
	cfg     Config
	started time.Time
}

// New returns a server with the given configuration.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{cfg: cfg, started: time.Now()}
	t := &Table{
		maxGraphSize: cfg.MaxGraphSize,
		metrics:      cfg.Metrics,
		sem:          make(chan struct{}, cfg.MaxConcurrent),
		tracer:       cfg.Tracer,
		om:           newCmdMetrics(cfg.Metrics),
	}
	s.Host = NewHost(ProtocolConfig{
		MaxLineBytes: cfg.MaxLineBytes,
		IdleTimeout:  cfg.IdleTimeout,
		Logf:         cfg.Logf,
		Name:         "server",
	}, func() (func(*Request) Response, func()) {
		sess := &session{s: s}
		return t.Handler(sess), func() { sess.eng.Close() }
	})
	return s
}

// session is the per-connection state: qgpd's Backend.
type session struct {
	s *Server
	g *graph.Graph
	// vg is the versioned core maintaining g in place: update applies
	// batches as deltas instead of rebuilding the graph, so g's pointer
	// stays stable across updates (only setGraph replaces it).
	vg *graph.Versioned
	// eng holds the standing watches (one evaluation per distinct
	// pattern), the session's one match.Bound per pattern text that match
	// reads and searched watches share, and, when the session is a cluster
	// worker holding a d-hop-preserving fragment, the owned set: the focus
	// candidates (local ids) the worker answers for. match restricts
	// evaluation to them and watch maintains only their membership;
	// non-owned fragment nodes may lack part of their neighborhood, so
	// their local answers would be wrong. Nil until the session has a
	// graph.
	eng *dynamic.Engine
	// muts is Update's mutation slice, reused from batch to batch.
	muts []graph.Mutation
}

// setGraph replaces the session graph wholesale (gen/load/fragment);
// standing watches are dropped because their cached answers refer to the
// old graph's node ids, and fragment ownership is replaced (owned non-nil
// makes the session a fragment's) because it names the old graph's nodes.
// Incremental changes go through update, which maintains the watches
// instead.
func (sess *session) setGraph(g *graph.Graph, owned []graph.NodeID) error {
	vg := graph.NewVersioned(g)
	eng, err := dynamic.NewEngine(vg.Graph(), owned, sess.s.cfg.Metrics)
	if err != nil {
		return err
	}
	sess.eng.Close() // its bounds are over the old graph
	sess.vg, sess.g, sess.eng = vg, vg.Graph(), eng
	return nil
}

// ErrNoGraph answers every graph-backed command before gen or load; the
// cluster front end reports a missing cluster with the same error.
var ErrNoGraph = errors.New("no graph loaded: run gen or load first")

func (sess *session) Ready() error {
	if sess.g == nil {
		return ErrNoGraph
	}
	return nil
}

// Admit admits every command: qgpd bounds how many run at once instead.
func (sess *session) Admit(string) error       { return nil }
func (sess *session) Served(string, time.Time) {}

func (sess *session) SetGraph(g *graph.Graph) (nodes, edges int, err error) {
	if err := sess.setGraph(g, nil); err != nil {
		return 0, 0, err
	}
	return g.NumNodes(), g.NumEdges(), nil
}

// Ping reports the session's fragment state, so a cluster supervisor
// probing over this path can tell a healthy worker from one that restarted
// blank or lost its fragment.
func (sess *session) Ping(resp *Response) {
	if sess.g != nil {
		resp.Nodes, resp.Edges = sess.g.NumNodes(), sess.g.NumEdges()
		resp.Fragment = sess.eng.Restricted()
		resp.Owned = len(sess.eng.Owned())
	}
}

// Health reports the server's liveness state — what a -debug-addr
// /healthz endpoint serves for qgpd: process uptime and the number of
// open connections (sessions).
func (s *Server) Health() (interface{}, error) {
	conns, shuttingDown := s.state()
	status := "ok"
	if shuttingDown {
		status = "shutting-down"
	}
	return map[string]interface{}{
		"status":        status,
		"connections":   conns,
		"uptimeSeconds": time.Since(s.started).Seconds(),
	}, nil
}

// buildGraph constructs the graph a gen, load or fragment request
// describes (dispatching on req.Cmd) and refuses one whose |V|+|E| exceeds
// maxSize.
func buildGraph(req *Request, maxSize int) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	switch req.Cmd {
	case "gen":
		size := req.Size
		if size <= 0 {
			size = 1000
		}
		// Every generator makes at least size nodes, and reserves room for
		// them before the cap below could look.
		if size > maxSize {
			return nil, fmt.Errorf("gen size %d exceeds cap %d", size, maxSize)
		}
		switch req.Kind {
		case "social", "":
			g = gen.Social(gen.DefaultSocial(size, req.Seed))
		case "knowledge":
			g = gen.Knowledge(gen.DefaultKnowledge(size, req.Seed))
		case "smallworld":
			g = gen.SmallWorld(gen.SmallWorldConfig{Nodes: size, Edges: 2 * size, Labels: 30, Seed: req.Seed})
		default:
			err = fmt.Errorf("unknown graph kind %q", req.Kind)
		}
	default: // load, fragment
		g, err = decodeGraph(req.Format, req.Data, maxSize)
	}
	if err != nil {
		return nil, err
	}
	if g.Size() > maxSize {
		return nil, fmt.Errorf("graph size %d exceeds cap %d", g.Size(), maxSize)
	}
	return g, nil
}

// decodeGraph reads the graph a load or fragment request carries in Data:
// the line-oriented text format, the JSON document format, or the binary
// format as base64 — what a cluster coordinator ships fragments in. The
// text and binary readers refuse a graph whose declared counts exceed
// maxSize before building it.
func decodeGraph(format, data string, maxSize int) (*graph.Graph, error) {
	switch format {
	case "text", "":
		return graph.Read(strings.NewReader(data), maxSize)
	case "binary":
		// Decoded as it is read: the fragment is never held a second time
		// as raw bytes beside the line that carried it.
		dec := base64.NewDecoder(base64.StdEncoding, strings.NewReader(data))
		g, err := graph.ReadBinary(dec, maxSize)
		if err != nil {
			return nil, err
		}
		// Base64 damaged past the graph's last byte is still refused.
		if _, err := io.Copy(io.Discard, dec); err != nil {
			return nil, err
		}
		return g, nil
	case "json":
		res, err := load.JSON(strings.NewReader(data))
		if err != nil {
			return nil, err
		}
		return res.Graph, nil
	default:
		return nil, fmt.Errorf("unknown graph format %q", format)
	}
}

// Update applies a mutation batch to the session graph in place through
// the versioned core and incrementally maintains every standing watch; an
// error anywhere in the batch leaves the session graph unchanged
// (Versioned.Apply validates up front, and post-apply validation failures
// roll the batch back) and the watches untouched. The batch is applied
// once and handed to the session's watch engine, which evaluates each
// distinct pattern once over the candidates the batch can flip and reports
// the delta under every subscribed name. The reply's Total is the work
// done: the widest group's re-judged candidates plus the nodes an
// assignment added, the latter only when the session holds a watch.
//
// On a fragment session the request may additionally carry Owned: nodes
// the cluster coordinator assigns to this worker, folded into the owned set
// after the batch applies — one combined round trip. A fragment session
// finds its re-verification candidates over its own graph, as any session
// does, and its reply names only the watches whose answers changed.
//
// tr receives the graph.apply span, dynamic.affected and dynamic.verify
// spans per watch group evaluated, and the batch, edits (the batch's net
// edge edits), nodes and affected (Total) counts.
func (sess *session) Update(req *Request, resp *Response, tr *obs.Trace) error {
	fragment := sess.eng.Restricted()
	if len(req.Owned) > 0 && !fragment {
		return fmt.Errorf("update: owning update on a session holding no fragment: run fragment first")
	}
	ng := sess.g
	var old *graph.OldView
	if len(req.Updates) > 0 {
		var err error
		if sess.muts, err = AppendUpdates(sess.muts[:0], req.Updates); err != nil {
			return err
		}
		tApply := tr.Now()
		old, err = sess.vg.Apply(sess.muts)
		if err != nil {
			return err
		}
		tr.Span(-1, "graph.apply", tApply)
		tr.Count("edits", len(old.Edits()))
		ng = sess.vg.Graph() // same pointer as sess.g: the batch applied in place
	}
	// The batch is already applied, so revert undoes it when a later
	// validation step rejects the request — keeping the contract that an
	// error leaves graph, watches and ownership untouched (a client may
	// retry an errored batch, and addNode is not idempotent).
	revert := func(cause error) error {
		if old == nil {
			return cause
		}
		if rerr := sess.vg.Rollback(old); rerr != nil {
			return fmt.Errorf("%w (rollback failed: %v)", cause, rerr)
		}
		return cause
	}
	if max := sess.s.cfg.MaxGraphSize; old != nil && ng.Size() > max {
		return revert(fmt.Errorf("updated graph size %d exceeds server cap %d", ng.Size(), max))
	}
	// Validate the assigned nodes, in the post-batch id space, before the
	// watches see the batch.
	assign, err := localNodes(ng, req.Owned)
	if err != nil {
		return revert(fmt.Errorf("update: %w", err))
	}
	// The batch is validated; commit: the graph already mutated in place.
	if len(req.Updates) > 0 {
		// An assign-only batch skips this: nothing changed in the graph,
		// Assign below reports the new candidates.
		deltas, err := sess.eng.Apply(old, ng, tr)
		if err != nil {
			return err
		}
		appendDeltas(resp, deltas, fragment)
		resp.Total = widest(deltas)
	}
	if len(assign) > 0 {
		deltas, err := sess.eng.Assign(assign, tr)
		if err != nil {
			return fmt.Errorf("update: %w", err)
		}
		appendDeltas(resp, deltas, fragment)
		resp.Total += widest(deltas)
	}
	resp.Nodes, resp.Edges = ng.NumNodes(), ng.NumEdges()
	tr.Count("batch", len(req.Updates))
	tr.Count("nodes", ng.NumNodes())
	tr.Count("affected", resp.Total)
	return nil
}

// widest returns the most candidates one watch group re-judged, 0 with no
// watch: an assignment to a session holding none judged nobody.
func widest(deltas []dynamic.NamedDelta) int {
	n := 0
	for _, d := range deltas {
		n = max(n, d.Affected)
	}
	return n
}

// appendDeltas converts the engine's per-watch answer deltas to the wire
// format. A fragment's reply keeps only the watches whose answers changed:
// its reader, the coordinator, knows every watch and reads the reply's
// Total for the work done, so the rest would be bytes that say nothing.
func appendDeltas(resp *Response, deltas []dynamic.NamedDelta, fragment bool) {
	for _, d := range deltas {
		if fragment && len(d.Added) == 0 && len(d.Removed) == 0 {
			continue
		}
		resp.Deltas = append(resp.Deltas, WatchDelta{Watch: d.Name, Added: IDs(d.Added), Removed: IDs(d.Removed), Affected: d.Affected})
	}
}

// Watch registers a standing pattern under the session's cap
// (Config.MaxWatches: 0 is the historical default of 16, negative lifts
// it).
func (sess *session) Watch(name string, q *core.Pattern, _ *Response) ([]graph.NodeID, error) {
	max := sess.s.cfg.MaxWatches
	if max == 0 {
		max = 16
	}
	if max > 0 && sess.eng.Names() >= max {
		return nil, fmt.Errorf("watch: session limit of %d standing patterns reached", max)
	}
	return sess.eng.Watch(name, q)
}

func (sess *session) Unwatch(name string) error { return sess.eng.Unwatch(name) }

// Stats collects the session graph's statistics on each call: the pass is
// O(|G|) and stats calls are rare.
func (sess *session) Stats(*obs.Trace) (*StatsSummary, error) {
	if sess.eng.Restricted() {
		// A fragment worker reports its owned share only: the fragment
		// also materializes other workers' nodes (neighborhood shipped
		// for the owned candidates' benefit), which whole-fragment stats
		// would double count across the cluster. Owned-restricted rows
		// sum exactly — see stats.CollectOwned — which is what lets the
		// coordinator serve stats from fragment copies instead of
		// pinning a frontend-side graph clone.
		return summarize(sess.g, stats.CollectOwned(sess.g, sess.eng.Owned())), nil
	}
	return summarize(sess.g, stats.Collect(sess.g)), nil
}

// evaluate runs the request's pattern with the request's engine over the
// session's bound for the pattern text (dynamic.Engine.Bound).
func (sess *session) evaluate(req *Request, collectProfile bool) (*match.Result, error) {
	e, err := match.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	b, err := sess.eng.Bound(req.Pattern)
	if err != nil {
		return nil, err
	}
	opts := &match.Options{ExtensionBudget: req.Budget, CollectProfile: collectProfile}
	if req.Budget <= 0 {
		opts.ExtensionBudget = max(sess.s.cfg.DefaultBudget, 0) // -1 disables
	}
	// Nil outside fragment mode; a fragment that owns nothing asks about nobody.
	opts.FocusRestrict = sess.eng.Owned()
	return b.Run(e, opts)
}

// Match evaluates a pattern over the session graph, recording the
// evaluation's span (match.<engine>) and its answers count in tr. A deep
// trace (a profile, or a worker's share of one) also collects the
// engine's profile and attaches it.
func (sess *session) Match(req *Request, tr *obs.Trace) (Answer, error) {
	t0 := time.Now()
	res, err := sess.evaluate(req, tr.Deep())
	if err != nil {
		return Answer{}, err
	}
	tr.Span(-1, "match."+cmp.Or(req.Engine, "qmatch"), t0)
	tr.Count("answers", len(res.Matches))
	if tr.Deep() {
		tr.Attach(res.Profile)
	}
	return Answer{Matches: res.Matches, Metrics: &res.Metrics}, nil
}

func (sess *session) Explain(q *core.Pattern, _ *obs.Trace) (any, error) {
	ex, err := match.Explain(sess.g, q)
	if err != nil {
		return nil, err
	}
	return ExplainDoc{Op: "explain", Plan: ex}, nil
}

// Partition builds a d-hop preserving partition of the session graph and
// reports its fragments' materialized node counts. DPar allocates a
// fragment per worker before it looks at the graph, so asking for more
// workers than the graph has nodes is refused before it runs.
func (sess *session) Partition(req *Request) ([]int, error) {
	if bound := max(sess.g.NumNodes(), 1); req.Workers > bound {
		return nil, fmt.Errorf("partition: %d workers exceed the graph's %d nodes", req.Workers, bound)
	}
	workers := req.Workers
	if workers <= 0 {
		workers = 4
	}
	d := req.D
	if d <= 0 {
		d = 2
	}
	p, err := partition.DPar(sess.g, partition.Config{Workers: workers, D: d})
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(p.Fragments))
	for i, f := range p.Fragments {
		sizes[i] = len(f.Nodes)
	}
	return sizes, nil
}

func (sess *session) rule(req *Request, resp *Response) error {
	q1, err := core.Parse(req.Pattern)
	if err != nil {
		return fmt.Errorf("antecedent: %w", err)
	}
	q2, err := core.Parse(req.Consequent)
	if err != nil {
		return fmt.Errorf("consequent: %w", err)
	}
	r, err := rules.New("request", q1, q2)
	if err != nil {
		return err
	}
	ev, err := r.Evaluate(sess.g)
	if err != nil {
		return err
	}
	fillMatches(resp, ev.Matches, req.Limit)
	resp.Support = ev.Support
	resp.Confidence = ev.Confidence
	resp.Lift = ev.Lift
	if req.Eta > 0 && ev.Confidence >= req.Eta {
		resp.Identified = IDs(ev.Matches)
	}
	return nil
}

func (sess *session) rpqFilter(req *Request, resp *Response) error {
	c, err := rpq.ParseConstraint(req.Constraint)
	if err != nil {
		return err
	}
	res, err := sess.evaluate(req, false)
	if err != nil {
		return err
	}
	fillMatches(resp, rpq.Filter(sess.g, res.Matches, c), req.Limit)
	resp.Metrics = &res.Metrics
	return nil
}

// fragment turns the session into a cluster worker: Data carries a
// d-hop-preserving fragment subgraph (local node ids) in any format load
// takes and Owned lists the local ids of the focus candidates this worker
// owns. Subsequent match and watch commands answer only for the owned
// set; update commands mutate the fragment and maintain the watches.
func (sess *session) fragment(req *Request, resp *Response) error {
	g, err := buildGraph(req, sess.s.cfg.MaxGraphSize)
	if err != nil {
		return err
	}
	owned, err := localNodes(g, req.Owned)
	if err != nil {
		return fmt.Errorf("fragment: %w", err)
	}
	if err := sess.setGraph(g, owned); err != nil {
		return fmt.Errorf("fragment: %w", err)
	}
	resp.Nodes, resp.Edges = g.NumNodes(), g.NumEdges()
	return nil
}

// localNodes validates wire node ids against g and converts them.
func localNodes(g *graph.Graph, ids []int64) ([]graph.NodeID, error) {
	out := make([]graph.NodeID, len(ids))
	for i, v := range ids {
		if v < 0 || v >= int64(g.NumNodes()) {
			return nil, fmt.Errorf("owned node %d outside [0, %d)", v, g.NumNodes())
		}
		out[i] = graph.NodeID(v)
	}
	return out, nil
}
