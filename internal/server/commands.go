package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Backend is one connection's side of the commands qgpd and the cluster
// front end both serve: only what differs between a qgpd session over its
// own graph and a front end connection over the shared cluster. The Table
// does the rest, so the two answer a request alike.
type Backend interface {
	// Ready reports why there is no graph to serve (ErrNoGraph, or a
	// failed recovery), or nil; every command over the graph asks first.
	Ready() error
	// Admit charges a command of an admission class ("match", "update" or
	// "watch") before it runs; Served books one that succeeded.
	Admit(class string) error
	Served(class string, start time.Time)
	// SetGraph replaces the graph (gen, load) and reports its size.
	SetGraph(g *graph.Graph) (nodes, edges int, err error)
	// Match takes the pattern as the request's text: a worker session's
	// Engine keys its one store of bounds on the text, whatever the
	// engine, and parses only on a miss. Match, Update,
	// Stats and Explain get the request's trace (nil when untraced) to
	// record their stages in.
	Match(req *Request, tr *obs.Trace) (Answer, error)
	// Update fills the reply's counts and deltas.
	Update(req *Request, resp *Response, tr *obs.Trace) error
	Watch(name string, q *core.Pattern, resp *Response) ([]graph.NodeID, error)
	Unwatch(name string) error
	Stats(tr *obs.Trace) (*StatsSummary, error)
	// Partition reports the node count of each fragment.
	Partition(req *Request) ([]int, error)
	Explain(q *core.Pattern, tr *obs.Trace) (doc any, err error)
	// Ping adds what a ping reports beyond liveness.
	Ping(resp *Response)
}

// Answer is what a Backend's match produced.
type Answer struct {
	Matches []graph.NodeID
	Metrics *match.Metrics
}

// Tenancy is the session vocabulary (protocol.go) of the multi-tenant
// cluster front end; only a Backend that implements it serves it.
type Tenancy interface {
	Session(req *Request, resp *Response) error
	Sessions(req *Request, resp *Response) error
	EndSession(req *Request, resp *Response) error
	Deltas(req *Request, resp *Response) error
}

// Table serves the commands to Backends and traces each with its tracer.
// qgpd's (New) also bounds the commands running at once and counts each
// per command; the cluster front end's (NewTable) does not: its registry
// is shared with embedded workers, whose per-command counts are the ones
// it reports.
type Table struct {
	maxGraphSize int
	metrics      *obs.Registry // what the metrics command exports
	sem          chan struct{}
	tracer       *obs.Tracer
	om           map[string]cmdMetrics
}

// NewTable returns a table that builds gen and load graphs up to
// maxGraphSize (|V|+|E|), exports reg through the metrics command and
// traces requests with tracer.
func NewTable(maxGraphSize int, reg *obs.Registry, tracer *obs.Tracer) *Table {
	return &Table{maxGraphSize: maxGraphSize, metrics: reg, tracer: tracer}
}

// Handler is one connection's request handler over b, what a Host's open
// returns.
func (t *Table) Handler(b Backend) func(*Request) Response {
	return func(req *Request) Response { return t.handle(b, req) }
}

type command struct {
	engine bool                  // names an engine, checked before anything runs
	graph  bool                  // runs over the graph: Backend.Ready first
	class  func(*Request) string // admission class; nil admits freely
	run    func(*Table, Backend, *Request, *Response, *obs.Trace) error
}

func reads(*Request) string   { return "match" }
func writes(*Request) string  { return "update" }
func watches(*Request) string { return "watch" }

// profiles charges a profile as what it profiles.
func profiles(req *Request) string {
	if carriesBatch(req) {
		return "update"
	}
	return "match"
}

// commands is the wire vocabulary but for sessionCommands, and what qgpd
// counts per command.
var commands = map[string]command{
	"ping":      {run: (*Table).ping},
	"gen":       {run: (*Table).setGraph},
	"load":      {run: (*Table).setGraph},
	"metrics":   {run: (*Table).exportMetrics},
	"match":     {engine: true, graph: true, class: reads, run: (*Table).answer},
	"update":    {graph: true, class: writes, run: (*Table).apply},
	"profile":   {engine: true, graph: true, class: profiles, run: (*Table).profile},
	"watch":     {graph: true, class: watches, run: (*Table).watch},
	"unwatch":   {graph: true, run: (*Table).unwatch},
	"stats":     {graph: true, run: (*Table).stats},
	"partition": {graph: true, run: (*Table).partition},
	"explain":   {graph: true, class: reads, run: (*Table).explain},

	"rule":      {graph: true, run: qgpdOnly((*session).rule)},
	"rpqfilter": {engine: true, graph: true, run: qgpdOnly((*session).rpqFilter)},
	"fragment":  {run: qgpdOnly((*session).fragment)},
}

// sessionCommands is the multi-tenant front end's session vocabulary:
// free, over no graph, and served by a Tenancy backend only.
var sessionCommands = map[string]func(Tenancy, *Request, *Response) error{
	"session":    Tenancy.Session,
	"sessions":   Tenancy.Sessions,
	"endsession": Tenancy.EndSession,
	"deltas":     Tenancy.Deltas,
}

// qgpdOnly is a command only a session over its own graph serves.
func qgpdOnly(run func(*session, *Request, *Response) error) func(*Table, Backend, *Request, *Response, *obs.Trace) error {
	return func(_ *Table, b Backend, req *Request, resp *Response, _ *obs.Trace) error {
		sess, ok := b.(*session)
		if !ok {
			return fmt.Errorf("command %q is not served by the cluster front end; connect to a worker qgpd for it", req.Cmd)
		}
		return run(sess, req, resp)
	}
}

func (t *Table) handle(b Backend, req *Request) Response {
	if t.sem != nil {
		t.sem <- struct{}{}
		defer func() { <-t.sem }()
	}
	start := time.Now()
	var resp Response
	tr, err := t.open(b, req)
	if err == nil {
		err = t.dispatch(b, req, &resp, start, tr)
	}
	rec := tr.Finish(err)
	if err == nil && tr.Deep() && resp.Profile == nil { // explain keeps its plan
		resp.Profile, err = json.Marshal(rec)
	}
	if err != nil {
		resp.Error = err.Error()
		// An admission refusal carries its backoff on the wire, so a
		// throttled client waits this long instead of guessing.
		var throttled interface{ RetryAfterMS() float64 }
		if errors.As(err, &throttled) {
			resp.RetryAfterMS = throttled.RetryAfterMS()
		}
	}
	resp.ElapsedMS = msSince(start)
	if t.om != nil {
		m, ok := t.om[req.Cmd]
		if !ok {
			m = t.om["unknown"]
		}
		m.count.Inc()
		if err != nil {
			m.errors.Inc()
		}
		m.ms.ObserveSince(start)
	}
	return resp
}

// open starts req's trace. A profile request and a traced hop get a deep
// one, even without a tracer: its record is the reply's document. The
// trace field is a coordinator's to its workers, so the front end refuses
// it from clients as it refuses owned; a client asks with profile.
func (t *Table) open(b Backend, req *Request) (*obs.Trace, error) {
	if req.Trace != 0 {
		if _, ok := b.(Tenancy); ok {
			return nil, errors.New("field trace is not served by the cluster front end; ask for a trace record with profile")
		}
	}
	if req.Cmd == "profile" || req.Trace != 0 {
		return t.tracer.Join(req.Cmd, req.Trace), nil
	}
	return t.tracer.Start(req.Cmd), nil
}

func (t *Table) dispatch(b Backend, req *Request, resp *Response, start time.Time, tr *obs.Trace) error {
	c, ok := commands[req.Cmd]
	if !ok {
		run, ok := sessionCommands[req.Cmd]
		if !ok {
			return fmt.Errorf("unknown command %q", req.Cmd)
		}
		tb, ok := b.(Tenancy)
		if !ok {
			return fmt.Errorf("command %q is served by the multi-tenant cluster front end only", req.Cmd)
		}
		return run(tb, req, resp)
	}
	if c.engine {
		if _, err := match.ParseEngine(req.Engine); err != nil {
			return err
		}
	}
	if c.graph {
		if err := b.Ready(); err != nil {
			return err
		}
	}
	var class string
	if c.class != nil {
		class = c.class(req)
		if err := b.Admit(class); err != nil {
			return err
		}
	}
	if err := c.run(t, b, req, resp, tr); err != nil {
		return err
	}
	if class != "" {
		b.Served(class, start)
	}
	return nil
}

func (t *Table) ping(b Backend, _ *Request, resp *Response, _ *obs.Trace) error {
	resp.Pong = true
	b.Ping(resp)
	return nil
}

func (t *Table) setGraph(b Backend, req *Request, resp *Response, _ *obs.Trace) error {
	g, err := buildGraph(req, t.maxGraphSize)
	if err != nil {
		return err
	}
	resp.Nodes, resp.Edges, err = b.SetGraph(g)
	return err
}

func (t *Table) exportMetrics(_ Backend, _ *Request, resp *Response, _ *obs.Trace) error {
	resp.Obs = t.metrics.JSON()
	return nil
}

// answer serves match, and the pattern form of profile.
func (t *Table) answer(b Backend, req *Request, resp *Response, tr *obs.Trace) error {
	a, err := b.Match(req, tr)
	if err != nil {
		return err
	}
	fillMatches(resp, a.Matches, req.Limit)
	resp.Metrics = a.Metrics
	return nil
}

// carriesBatch reports whether a request carries a batch (updates, or
// nodes newly owned), which a profile request then profiles instead of a
// match.
func carriesBatch(req *Request) bool {
	return len(req.Updates) > 0 || len(req.Owned) > 0
}

// apply serves update, and the batch form of profile.
func (t *Table) apply(b Backend, req *Request, resp *Response, tr *obs.Trace) error {
	if !carriesBatch(req) {
		return errors.New("update: empty batch")
	}
	return b.Update(req, resp, tr)
}

func (t *Table) profile(b Backend, req *Request, resp *Response, tr *obs.Trace) error {
	switch {
	case carriesBatch(req):
		return t.apply(b, req, resp, tr)
	case req.Pattern != "":
		return t.answer(b, req, resp, tr)
	}
	return errors.New("profile: request carries neither a pattern nor an update batch")
}

func (t *Table) watch(b Backend, req *Request, resp *Response, _ *obs.Trace) error {
	if req.Watch == "" {
		return errors.New("watch: empty name")
	}
	q, err := parsePattern(req)
	if err != nil {
		return err
	}
	answers, err := b.Watch(req.Watch, q, resp)
	if err != nil {
		return err
	}
	fillMatches(resp, answers, req.Limit)
	return nil
}

func (t *Table) unwatch(b Backend, req *Request, _ *Response, _ *obs.Trace) error {
	return b.Unwatch(req.Watch)
}

func (t *Table) stats(b Backend, req *Request, resp *Response, tr *obs.Trace) error {
	sum, err := b.Stats(tr)
	if err != nil {
		return err
	}
	fillStats(resp, sum, req.TopK)
	return nil
}

// partition's skew is over the non-empty fragments (partition.SkewOf): an
// empty one means the graph populated fewer workers, not that a balanced
// partition is skewed.
func (t *Table) partition(b Backend, req *Request, resp *Response, _ *obs.Trace) error {
	sizes, err := b.Partition(req)
	if err != nil {
		return err
	}
	resp.Fragments, resp.Skew = sizes, partition.SkewOf(sizes)
	return nil
}

func (t *Table) explain(b Backend, req *Request, resp *Response, tr *obs.Trace) error {
	q, err := parsePattern(req)
	if err != nil {
		return err
	}
	doc, err := b.Explain(q, tr)
	if err != nil {
		return err
	}
	if resp.Profile, err = json.Marshal(doc); err != nil {
		return fmt.Errorf("explain: %w", err)
	}
	return nil
}

func parsePattern(req *Request) (*core.Pattern, error) {
	if req.Pattern == "" {
		return nil, fmt.Errorf("%s: empty pattern", req.Cmd)
	}
	return core.Parse(req.Pattern)
}

// fillMatches writes an answer set into a reply, applying the request's
// limit.
func fillMatches(resp *Response, matches []graph.NodeID, limit int) {
	resp.Total = len(matches)
	if limit > 0 && len(matches) > limit {
		matches = matches[:limit]
	}
	resp.Matches = IDs(matches)
}

// cmdMetrics is one command's instruments.
type cmdMetrics struct {
	count  *obs.Counter
	errors *obs.Counter
	ms     *obs.Histogram
}

// newCmdMetrics resolves one instrument set per command, and one under
// "unknown" for the rest, so the request path never touches the registry's
// maps.
func newCmdMetrics(reg *obs.Registry) map[string]cmdMetrics {
	if reg == nil {
		return nil
	}
	om := make(map[string]cmdMetrics, len(commands)+1)
	for _, cmd := range append(slices.Collect(maps.Keys(commands)), "unknown") {
		om[cmd] = cmdMetrics{
			count:  reg.Counter("server.cmd." + cmd + ".count"),
			errors: reg.Counter("server.cmd." + cmd + ".errors"),
			ms:     reg.Histogram("server.cmd."+cmd+".ms", obs.LatencyBucketsMS),
		}
	}
	return om
}
