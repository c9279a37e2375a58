// Package server exposes quantified graph pattern matching over TCP with
// a newline-delimited JSON protocol. Each connection is a session holding
// one graph; queries on a session run sequentially while sessions run
// concurrently, bounded by a server-wide semaphore so a burst of
// expensive pattern queries cannot exhaust the machine. Every query runs
// under an extension budget (Config.DefaultBudget) so a pathological
// pattern returns an error instead of hanging the session.
package server

import (
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
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/plan"
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
// the embedded Host's; each connection is one session.
type Server struct {
	*Host
	cfg     Config
	sem     chan struct{}
	om      *serverMetrics
	bm      boundMetrics
	started time.Time
}

// New returns a server with the given configuration.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		om:      newServerMetrics(cfg.Metrics),
		bm:      newBoundMetrics(cfg.Metrics),
		started: time.Now(),
	}
	s.Host = NewHost(ProtocolConfig{
		MaxLineBytes: cfg.MaxLineBytes,
		IdleTimeout:  cfg.IdleTimeout,
		Logf:         cfg.Logf,
		Name:         "server",
	}, func() (func(*Request) Response, func()) {
		sess := &session{bounds: boundCache{m: s.bm}}
		return func(req *Request) Response { return s.handle(sess, req) },
			sess.bounds.reset // the live-bounds gauge outlives the session
	})
	return s
}

// commands is the full wire vocabulary; serverMetrics pre-resolves one
// instrument set per command so the request path never touches the
// registry's maps.
var commands = []string{
	"ping", "gen", "load", "update", "watch", "unwatch", "stats", "match",
	"pmatch", "rule", "rpqfilter", "partition", "fragment", "metrics",
	"explain", "profile",
}

// cmdMetrics is one command's instruments.
type cmdMetrics struct {
	count  *obs.Counter
	errors *obs.Counter
	ms     *obs.Histogram
}

type serverMetrics struct {
	byCmd   map[string]cmdMetrics
	unknown cmdMetrics
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	sm := &serverMetrics{byCmd: make(map[string]cmdMetrics, len(commands))}
	for _, cmd := range commands {
		sm.byCmd[cmd] = cmdMetrics{
			count:  reg.Counter("server.cmd." + cmd + ".count"),
			errors: reg.Counter("server.cmd." + cmd + ".errors"),
			ms:     reg.Histogram("server.cmd."+cmd+".ms", obs.LatencyBucketsMS),
		}
	}
	sm.unknown = cmdMetrics{
		count:  reg.Counter("server.cmd.unknown.count"),
		errors: reg.Counter("server.cmd.unknown.errors"),
		ms:     reg.Histogram("server.cmd.unknown.ms", obs.LatencyBucketsMS),
	}
	return sm
}

// record books one handled request; a no-op on a nil receiver
// (Config.Metrics unset).
func (sm *serverMetrics) record(cmd string, start time.Time, failed bool) {
	if sm == nil {
		return
	}
	m, ok := sm.byCmd[cmd]
	if !ok {
		m = sm.unknown
	}
	m.count.Inc()
	if failed {
		m.errors.Inc()
	}
	m.ms.ObserveSince(start)
}

// session is the per-connection state.
type session struct {
	g *graph.Graph
	// vg is the versioned core maintaining g in place: handleUpdate
	// applies batches as deltas instead of rebuilding the graph, so g's
	// pointer stays stable across updates (only setGraph replaces it).
	vg *graph.Versioned
	st *stats.Stats // lazily computed, reset on graph change
	// eng holds the standing watches (one evaluation per distinct
	// pattern) and, when the session is a cluster worker holding a
	// d-hop-preserving fragment, the owned set: the focus candidates
	// (local ids) the worker answers for. match restricts evaluation to
	// them and watch maintains only their membership; non-owned fragment
	// nodes may lack part of their neighborhood, so their local answers
	// would be wrong. Nil until the session has a graph.
	eng *dynamic.Engine
	// bounds holds one match.Bound per pattern the session was asked to
	// match, and the touched sets that advance them (bounds.go).
	bounds boundCache
}

// setGraph replaces the session graph wholesale (gen/load/fragment);
// standing watches are dropped because their cached answers refer to the
// old graph's node ids, and fragment ownership is replaced (owned non-nil
// makes the session a fragment's) because it names the old graph's nodes.
// Incremental changes go through handleUpdate, which maintains the
// watches instead.
func (sess *session) setGraph(g *graph.Graph, owned []graph.NodeID) error {
	vg := graph.NewVersioned(g)
	eng, err := dynamic.NewEngine(vg.Graph(), owned)
	if err != nil {
		return err
	}
	sess.vg, sess.g, sess.st, sess.eng = vg, vg.Graph(), nil, eng
	sess.bounds.reset() // bounds are over the old graph
	return nil
}

func (sess *session) stats() *stats.Stats {
	if sess.st == nil && sess.g != nil {
		sess.st = stats.Collect(sess.g)
	}
	return sess.st
}

// handle runs one request under the concurrency semaphore.
func (s *Server) handle(sess *session, req *Request) Response {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	start := time.Now()
	tr := s.cfg.Tracer.Start(req.Cmd)

	var resp Response
	var err error
	switch req.Cmd {
	case "ping":
		resp.Pong = true
		// A ping also reports the session's fragment state, so a
		// cluster supervisor probing over this path can tell a healthy
		// worker from one that restarted blank or lost its fragment.
		if sess.g != nil {
			resp.Nodes, resp.Edges = sess.g.NumNodes(), sess.g.NumEdges()
			resp.Fragment = sess.eng.Restricted()
			resp.Owned = len(sess.eng.Owned())
		}
	case "gen", "load":
		err = s.handleGraph(sess, req, &resp)
	case "update":
		err = s.handleUpdate(sess, req, &resp, nil)
	case "watch":
		err = s.handleWatch(sess, req, &resp)
	case "unwatch":
		err = s.handleUnwatch(sess, req, &resp)
	case "stats":
		err = s.handleStats(sess, req, &resp)
	case "match":
		err = s.handleMatch(sess, req, &resp, nil)
	case "pmatch":
		err = s.handlePMatch(sess, req, &resp)
	case "rule":
		err = s.handleRule(sess, req, &resp)
	case "rpqfilter":
		err = s.handleRPQFilter(sess, req, &resp)
	case "partition":
		err = s.handlePartition(sess, req, &resp)
	case "fragment":
		err = s.handleFragment(sess, req, &resp)
	case "metrics":
		// The registry snapshot over the wire: a newline-JSON client can
		// scrape a session's server without a debug HTTP listener.
		resp.Obs = s.cfg.Metrics.JSON()
	case "explain":
		err = s.handleExplain(sess, req, &resp)
	case "profile":
		err = s.handleProfile(sess, req, &resp)
	default:
		err = fmt.Errorf("unknown command %q", req.Cmd)
	}
	if err != nil {
		resp.Error = err.Error()
	}
	resp.ElapsedMS = MsSince(start)
	s.om.record(req.Cmd, start, err != nil)
	tr.Finish(err)
	return resp
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

// BuildGraph constructs the graph a gen, load or fragment request
// describes (dispatching on req.Cmd) and refuses one whose |V|+|E| exceeds
// maxSize; the server and the cluster front end share this so their
// gen/load vocabularies cannot diverge.
func BuildGraph(req *Request, maxSize int) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	switch req.Cmd {
	case "gen":
		size := req.Size
		if size <= 0 {
			size = 1000
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
	case "load", "fragment":
		g, err = decodeGraph(req.Format, req.Data, maxSize)
	default:
		err = fmt.Errorf("BuildGraph: not a gen, load or fragment request: %q", req.Cmd)
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
// format as base64 — what a cluster coordinator ships fragments in, and
// the one format refused from its declared counts, before the graph is
// built, when it exceeds maxSize.
func decodeGraph(format, data string, maxSize int) (*graph.Graph, error) {
	switch format {
	case "text", "":
		return graph.Read(strings.NewReader(data))
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

func (s *Server) handleGraph(sess *session, req *Request, resp *Response) error {
	g, err := BuildGraph(req, s.cfg.MaxGraphSize)
	if err != nil {
		return err
	}
	if err := sess.setGraph(g, nil); err != nil {
		return err
	}
	resp.Nodes, resp.Edges = g.NumNodes(), g.NumEdges()
	return nil
}

// handleUpdate applies a mutation batch to the session graph in place
// through the versioned core and incrementally maintains every standing
// watch; an error anywhere in the batch leaves the session graph
// unchanged (Versioned.Apply validates up front, and post-apply
// validation failures roll the batch back) and the watches untouched.
// The batch is applied once and handed to the session's watch engine,
// which evaluates each distinct pattern once over the candidates the
// batch can flip and reports the delta under every subscribed name.
//
// On a fragment session the request may additionally carry the cluster
// coordinator's routing: Scoped + Affected narrow re-verification to the
// coordinator-computed affected set (local ids), and Owned lists nodes
// the coordinator assigns to this worker, folded into the owned set after
// the batch applies — one combined round trip. The reply to a scoped
// request names only the watches whose answers changed.
func (s *Server) handleUpdate(sess *session, req *Request, resp *Response, prof *UpdateProfileDoc) error {
	if sess.g == nil {
		return ErrNoGraph
	}
	if len(req.Updates) == 0 && len(req.Owned) == 0 {
		return fmt.Errorf("update: empty batch")
	}
	if (req.Scoped || len(req.Owned) > 0) && !sess.eng.Restricted() {
		return fmt.Errorf("update: scoped or owning update on a session holding no fragment: run fragment first")
	}
	ng := sess.g
	var touched []graph.NodeID
	var old *graph.OldView
	if len(req.Updates) > 0 {
		ups, err := ToUpdates(req.Updates)
		if err != nil {
			return err
		}
		tApply := time.Now()
		old, touched, err = sess.vg.Apply(ups)
		if err != nil {
			return err
		}
		if prof != nil {
			prof.ApplyMS = MsSince(tApply)
		}
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
		sess.bounds.breakLog(ng)
		return cause
	}
	if old != nil && ng.Size() > s.cfg.MaxGraphSize {
		return revert(fmt.Errorf("updated graph size %d exceeds server cap %d", ng.Size(), s.cfg.MaxGraphSize))
	}
	// Validate everything the request names — affected candidates and
	// assigned nodes, both in the post-batch id space — before the
	// watches see the batch.
	var scoped []graph.NodeID
	if req.Scoped {
		var err error
		if scoped, err = localNodes(ng, req.Affected); err != nil {
			return revert(fmt.Errorf("update: %w", err))
		}
	}
	assign, err := localNodes(ng, req.Owned)
	if err != nil {
		return revert(fmt.Errorf("update: %w", err))
	}
	// The batch is validated; commit. The graph already mutated in
	// place, so only the cached statistics reset.
	sess.st = nil
	if len(req.Updates) > 0 {
		// An assign-only batch skips this: nothing changed in the graph,
		// Assign below reports the new candidates.
		sess.bounds.noteBatch(ng, touched)
		var deltas []dynamic.NamedDelta
		if req.Scoped {
			deltas, err = sess.eng.ApplyScoped(ng, scoped)
		} else {
			deltas, err = sess.eng.Apply(old, ng, touched)
		}
		if err != nil {
			return err
		}
		appendDeltas(resp, deltas, req.Scoped)
		if prof != nil {
			prof.Groups = sess.eng.Groups()
			for _, d := range deltas {
				prof.Watches = append(prof.Watches, WatchStageProfile{
					Watch:      d.Name,
					Affected:   d.Affected,
					AffectedMS: durMS(d.AffectedTime),
					VerifyMS:   durMS(d.VerifyTime),
					Added:      len(d.Added),
					Removed:    len(d.Removed),
				})
			}
		}
	}
	if len(assign) > 0 {
		deltas, err := sess.eng.Assign(assign)
		if err != nil {
			return fmt.Errorf("update: %w", err)
		}
		appendDeltas(resp, deltas, req.Scoped)
	}
	resp.Nodes, resp.Edges = ng.NumNodes(), ng.NumEdges()
	if prof != nil {
		prof.BatchSize = len(req.Updates)
		prof.Touched = len(touched)
		prof.Scoped = req.Scoped
		prof.Nodes = ng.NumNodes()
		if req.Scoped {
			prof.AffectedSize = len(scoped)
		} else {
			// Unscoped: the affected candidates differ per pattern;
			// report the widest.
			for _, w := range prof.Watches {
				if w.Affected > prof.AffectedSize {
					prof.AffectedSize = w.Affected
				}
			}
		}
		if prof.Nodes > 0 {
			prof.WorkRatio = float64(prof.AffectedSize) / float64(prof.Nodes)
		}
	}
	return nil
}

// appendDeltas converts the engine's per-watch answer deltas to the wire
// format. A scoped reply keeps only the watches whose answers changed: its
// reader, the coordinator, knows every watch and what it asked to have
// re-verified, so the rest would be bytes that say nothing.
func appendDeltas(resp *Response, deltas []dynamic.NamedDelta, scoped bool) {
	for _, d := range deltas {
		if scoped && len(d.Added) == 0 && len(d.Removed) == 0 {
			continue
		}
		resp.Deltas = append(resp.Deltas, WatchDelta{Watch: d.Name, Added: IDs(d.Added), Removed: IDs(d.Removed), Affected: d.Affected})
	}
}

// handleWatch registers a standing pattern under a name; the response
// carries the initial answer set. Later update commands report this
// watch's delta.
func (s *Server) handleWatch(sess *session, req *Request, resp *Response) error {
	if sess.g == nil {
		return ErrNoGraph
	}
	if req.Watch == "" {
		return fmt.Errorf("watch: empty name")
	}
	if max := s.watchCap(); max > 0 && sess.eng.Names() >= max {
		return fmt.Errorf("watch: session limit of %d standing patterns reached", max)
	}
	q, err := core.Parse(req.Pattern)
	if err != nil {
		return err
	}
	answers, err := sess.eng.Watch(req.Watch, q)
	if err != nil {
		return err
	}
	FillMatches(resp, answers, req.Limit)
	return nil
}

// handleUnwatch removes a standing pattern.
func (s *Server) handleUnwatch(sess *session, req *Request, resp *Response) error {
	if sess.g == nil {
		return fmt.Errorf("no watch named %q", req.Watch)
	}
	return sess.eng.Unwatch(req.Watch)
}

func (s *Server) handleStats(sess *session, req *Request, resp *Response) error {
	if sess.g == nil {
		return ErrNoGraph
	}
	if sess.eng.Restricted() {
		// A fragment worker reports its owned share only: the fragment
		// also materializes other workers' nodes (neighborhood shipped
		// for the owned candidates' benefit), which whole-fragment stats
		// would double count across the cluster. Owned-restricted rows
		// sum exactly — see stats.CollectOwned — which is what lets the
		// coordinator serve stats from fragment copies instead of
		// pinning a frontend-side graph clone. Not cached: the owned
		// pass is O(|fragment|) and stats calls are rare.
		FillStats(resp, sess.g, stats.CollectOwned(sess.g, sess.eng.Owned()), req.TopK)
		return nil
	}
	FillStats(resp, sess.g, sess.stats(), req.TopK)
	return nil
}

// ErrNoGraph answers every graph-backed command before gen or load; the
// cluster front end reports a missing cluster with the same error.
var ErrNoGraph = errors.New("no graph loaded: run gen or load first")

// watchCap resolves Config.MaxWatches: 0 means the historical default
// of 16, negative lifts the cap.
func (s *Server) watchCap() int {
	if s.cfg.MaxWatches == 0 {
		return 16
	}
	return s.cfg.MaxWatches
}

func (s *Server) budget(req *Request) int64 {
	switch {
	case req.Budget > 0:
		return req.Budget
	case s.cfg.DefaultBudget < 0:
		return 0
	default:
		return s.cfg.DefaultBudget
	}
}

func (s *Server) matchOptions(sess *session, req *Request) *match.Options {
	opts := &match.Options{ExtensionBudget: s.budget(req)}
	if req.Planner {
		opts.OrderBy = plan.OrderFunc(sess.g, sess.stats())
	}
	// Nil outside fragment mode; a fragment that owns nothing asks about nobody.
	opts.FocusRestrict = sess.eng.Owned()
	return opts
}

// evaluate runs the request's pattern over the session graph through the
// session's bound for it: built by the first request, hit while the graph
// stands still, repaired across the batches in between when it moved.
func (s *Server) evaluate(sess *session, req *Request, collectProfile bool) (*match.Result, error) {
	b, err := sess.bounds.bound(sess.g, req)
	if err != nil {
		return nil, err
	}
	opts := s.matchOptions(sess, req)
	opts.CollectProfile = collectProfile
	return b.Run(opts)
}

// handleMatch evaluates a pattern over the session graph. A non-nil doc
// (the profile command) additionally collects the per-stage profile and
// the planner's estimates into it.
func (s *Server) handleMatch(sess *session, req *Request, resp *Response, doc *MatchProfileDoc) error {
	if sess.g == nil {
		return ErrNoGraph
	}
	if doc != nil {
		q, err := core.Parse(req.Pattern)
		if err != nil {
			return err
		}
		if ex, exErr := plan.Explain(sess.g, sess.stats(), q); exErr == nil {
			doc.Plan = ex
		}
	}
	t0 := time.Now()
	res, err := s.evaluate(sess, req, doc != nil)
	if err != nil {
		return err
	}
	FillMatches(resp, res.Matches, req.Limit)
	resp.Metrics = &res.Metrics
	if doc != nil {
		doc.Profile = res.Profile
		doc.Matches = resp.Total
		doc.TotalMS = MsSince(t0)
	}
	return nil
}

func (s *Server) handlePMatch(sess *session, req *Request, resp *Response) error {
	if sess.g == nil {
		return ErrNoGraph
	}
	q, err := core.Parse(req.Pattern)
	if err != nil {
		return err
	}
	workers := req.Workers
	if workers <= 0 {
		workers = 4
	}
	threads := req.Threads
	if threads <= 0 {
		threads = 2
	}
	d := req.D
	if need := core.RequiredHops(q); d < need {
		d = need
	}
	p, err := partition.DPar(sess.g, partition.Config{Workers: workers, D: d})
	if err != nil {
		return err
	}
	res, err := parallel.Run(parallel.NewCluster(p), q, req.Engine, threads)
	if err != nil {
		return err
	}
	FillMatches(resp, res.Matches, req.Limit)
	resp.Metrics = &res.Metrics
	return nil
}

func (s *Server) handleRule(sess *session, req *Request, resp *Response) error {
	if sess.g == nil {
		return ErrNoGraph
	}
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
	FillMatches(resp, ev.Matches, req.Limit)
	resp.Support = ev.Support
	resp.Confidence = ev.Confidence
	resp.Lift = ev.Lift
	if req.Eta > 0 && ev.Confidence >= req.Eta {
		resp.Identified = IDs(ev.Matches)
	}
	return nil
}

func (s *Server) handleRPQFilter(sess *session, req *Request, resp *Response) error {
	if sess.g == nil {
		return ErrNoGraph
	}
	c, err := rpq.ParseConstraint(req.Constraint)
	if err != nil {
		return err
	}
	res, err := s.evaluate(sess, req, false)
	if err != nil {
		return err
	}
	filtered := rpq.Filter(sess.g, res.Matches, c)
	FillMatches(resp, filtered, req.Limit)
	resp.Total = len(filtered)
	resp.Metrics = &res.Metrics
	return nil
}

func (s *Server) handlePartition(sess *session, req *Request, resp *Response) error {
	if sess.g == nil {
		return ErrNoGraph
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
		return err
	}
	resp.Skew = p.Skew()
	for _, f := range p.Fragments {
		resp.Fragments = append(resp.Fragments, f.Size)
	}
	return nil
}

// handleFragment turns the session into a cluster worker: Data carries a
// d-hop-preserving fragment subgraph (local node ids) in any format load
// takes and Owned lists the local ids of the focus candidates this worker
// owns. Subsequent match and watch commands answer only for the owned
// set; update commands mutate the fragment and maintain the watches.
func (s *Server) handleFragment(sess *session, req *Request, resp *Response) error {
	g, err := BuildGraph(req, s.cfg.MaxGraphSize)
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

// FillMatches writes an answer set into a response, applying the
// request's limit; shared with the cluster front end.
func FillMatches(resp *Response, matches []graph.NodeID, limit int) {
	resp.Total = len(matches)
	if limit > 0 && len(matches) > limit {
		matches = matches[:limit]
	}
	resp.Matches = IDs(matches)
}
