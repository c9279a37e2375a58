// Package client is the Go client for the qgpd query server: it dials the
// newline-delimited JSON protocol of internal/server and exposes one
// typed method per command. A Client owns one connection (one server
// session, one graph); it is safe for concurrent use — calls are
// serialized, matching the server's in-order processing per connection.
package client

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/server"
)

// Client is a connection to a qgpd server.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	in     *server.LineReader // a response line is capped at 64 MiB
	out    *server.LineWriter
	nextID int64
	// Timeout bounds each round trip; zero means no deadline.
	Timeout time.Duration
}

// Dial connects to a server address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection, such as one end of an
// in-memory pair (tests, the cluster's embedded workers).
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, in: server.NewLineReader(conn, 64<<20), out: server.NewLineWriter(conn)}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and waits for its response. Most callers use the
// typed helpers instead.
func (c *Client) Do(req *server.Request) (*server.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	req.ID = c.nextID

	if c.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.Timeout))
	}
	if err := c.out.WriteRequest(req); err != nil {
		return nil, fmt.Errorf("client: write: %w", err)
	}
	line, err := c.in.ReadLine()
	if err == io.EOF {
		return nil, fmt.Errorf("client: connection closed by server")
	}
	if err != nil {
		return nil, fmt.Errorf("client: read: %w", err)
	}
	var resp server.Response
	if err := server.DecodeResponse(line, &resp); err != nil {
		return nil, fmt.Errorf("client: decode: %w", err)
	}
	if resp.ID == 0 && !resp.OK {
		// The server could not read the line far enough to learn its id
		// (not JSON, or over its line cap — then it hangs up as well).
		return nil, fmt.Errorf("client: %s", resp.Error)
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("client: response id %d for request %d", resp.ID, req.ID)
	}
	if !resp.OK {
		return &resp, &ServerError{Msg: resp.Error, RetryAfterMS: resp.RetryAfterMS}
	}
	return &resp, nil
}

// ServerError is a command-level failure reported by the server; the
// connection remains usable. RetryAfterMS is non-zero when the
// multi-tenant front end throttled the command (per-tenant rate limit
// or update budget): back off that many milliseconds before retrying.
type ServerError struct {
	Msg          string
	RetryAfterMS float64
}

func (e *ServerError) Error() string { return "server: " + e.Msg }

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.Do(&server.Request{Cmd: "ping"})
	return err
}

// Gen generates a synthetic session graph ("social", "knowledge" or
// "smallworld") and returns its node and edge counts.
func (c *Client) Gen(kind string, size int, seed int64) (nodes, edges int, err error) {
	resp, err := c.Do(&server.Request{Cmd: "gen", Kind: kind, Size: size, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	return resp.Nodes, resp.Edges, nil
}

// LoadText loads a graph in the native text format.
func (c *Client) LoadText(data string) (nodes, edges int, err error) {
	resp, err := c.Do(&server.Request{Cmd: "load", Format: "text", Data: data})
	if err != nil {
		return 0, 0, err
	}
	return resp.Nodes, resp.Edges, nil
}

// LoadJSON loads a graph in the JSON property-graph format.
func (c *Client) LoadJSON(data string) (nodes, edges int, err error) {
	resp, err := c.Do(&server.Request{Cmd: "load", Format: "json", Data: data})
	if err != nil {
		return 0, 0, err
	}
	return resp.Nodes, resp.Edges, nil
}

// Update applies a mutation batch to the session graph and returns the
// new node and edge counts. Ops: "addNode", "addEdge", "removeEdge",
// "removeNode" (isolates the node; ids stay stable).
func (c *Client) Update(updates ...server.UpdateSpec) (nodes, edges int, err error) {
	resp, err := c.Do(&server.Request{Cmd: "update", Updates: updates})
	if err != nil {
		return 0, 0, err
	}
	return resp.Nodes, resp.Edges, nil
}

// Watch registers a standing pattern under a name and returns its initial
// answers. Every later Update on this client reports the watch's answer
// delta in Response.Deltas.
func (c *Client) Watch(name, pattern string) (*server.Response, error) {
	return c.Do(&server.Request{Cmd: "watch", Watch: name, Pattern: pattern})
}

// Unwatch removes a standing pattern.
func (c *Client) Unwatch(name string) error {
	_, err := c.Do(&server.Request{Cmd: "unwatch", Watch: name})
	return err
}

// UpdateWithDeltas is Update returning the full response, including the
// per-watch answer deltas.
func (c *Client) UpdateWithDeltas(updates ...server.UpdateSpec) (*server.Response, error) {
	return c.Do(&server.Request{Cmd: "update", Updates: updates})
}

// Fragment loads a d-hop-preserving fragment into the session, turning it
// into a cluster worker: data is the fragment subgraph in the graph text
// format (local node ids) and owned lists the local ids of the focus
// candidates this worker answers for. See internal/cluster.
func (c *Client) Fragment(data string, owned []int64) (nodes, edges int, err error) {
	resp, err := c.Do(&server.Request{Cmd: "fragment", Data: data, Owned: owned})
	if err != nil {
		return 0, 0, err
	}
	return resp.Nodes, resp.Edges, nil
}

// MatchOptions tunes a Match call.
type MatchOptions struct {
	Engine  string // qmatch (default) | qmatchn | enum
	Planner bool
	Budget  int64
	Limit   int
}

// Match evaluates a QGP (DSL text) and returns the focus matches.
func (c *Client) Match(pattern string, opts *MatchOptions) (*server.Response, error) {
	req := &server.Request{Cmd: "match", Pattern: pattern}
	if opts != nil {
		req.Engine = opts.Engine
		req.Planner = opts.Planner
		req.Budget = opts.Budget
		req.Limit = opts.Limit
	}
	return c.Do(req)
}

// PMatch evaluates a QGP in parallel over a d-hop partition.
func (c *Client) PMatch(pattern string, workers, threads int) (*server.Response, error) {
	return c.Do(&server.Request{Cmd: "pmatch", Pattern: pattern, Workers: workers, Threads: threads})
}

// Rule evaluates a QGAR Q1 ⇒ Q2 and returns support, confidence and (when
// confidence ≥ eta > 0) the identified entities.
func (c *Client) Rule(q1, q2 string, eta float64) (*server.Response, error) {
	return c.Do(&server.Request{Cmd: "rule", Pattern: q1, Consequent: q2, Eta: eta})
}

// RPQFilter evaluates a QGP and filters its answers by a quantified path
// constraint ("expr within N quant").
func (c *Client) RPQFilter(pattern, constraint string) (*server.Response, error) {
	return c.Do(&server.Request{Cmd: "rpqfilter", Pattern: pattern, Constraint: constraint})
}

// Partition builds a d-hop preserving partition and reports balance.
func (c *Client) Partition(workers, d int) (*server.Response, error) {
	return c.Do(&server.Request{Cmd: "partition", Workers: workers, D: d})
}

// Stats returns graph summary statistics with the topK triple classes.
func (c *Client) Stats(topK int) (*server.Response, error) {
	return c.Do(&server.Request{Cmd: "stats", TopK: topK})
}

// Metrics returns the server's metrics-registry snapshot as raw JSON
// (obs.Snapshot shape); "{}" when the server runs without a registry.
func (c *Client) Metrics() (json.RawMessage, error) {
	resp, err := c.Do(&server.Request{Cmd: "metrics"})
	if err != nil {
		return nil, err
	}
	return resp.Obs, nil
}

// Explain plans a QGP without executing it and returns the plan document
// (matching order and per-step cardinality estimates) as raw JSON.
func (c *Client) Explain(pattern string) (json.RawMessage, error) {
	resp, err := c.Do(&server.Request{Cmd: "explain", Pattern: pattern})
	if err != nil {
		return nil, err
	}
	return resp.Profile, nil
}

// ProfileMatch evaluates a QGP with per-stage profiling: the full
// response (matches, metrics) plus the profile document in
// Response.Profile.
func (c *Client) ProfileMatch(pattern string, opts *MatchOptions) (*server.Response, error) {
	req := &server.Request{Cmd: "profile", Pattern: pattern}
	if opts != nil {
		req.Engine = opts.Engine
		req.Planner = opts.Planner
		req.Budget = opts.Budget
		req.Limit = opts.Limit
	}
	return c.Do(req)
}

// ProfileUpdate applies a mutation batch with per-stage profiling: the
// full response (counts, watch deltas) plus the update stage document in
// Response.Profile.
func (c *Client) ProfileUpdate(updates ...server.UpdateSpec) (*server.Response, error) {
	return c.Do(&server.Request{Cmd: "profile", Updates: updates})
}

// Session attaches this connection to a named tenant session on the
// multi-tenant cluster front end; an empty name creates a fresh
// connection-scoped one. Returns the (possibly generated) session name.
// A named session's watches and pending deltas survive disconnects until
// the front end's idle timeout evicts it.
func (c *Client) Session(name string) (string, error) {
	resp, err := c.Do(&server.Request{Cmd: "session", Session: name})
	if err != nil {
		return "", err
	}
	return resp.Session, nil
}

// Sessions lists the front end's live tenant sessions.
func (c *Client) Sessions() ([]server.TenantInfo, error) {
	resp, err := c.Do(&server.Request{Cmd: "sessions"})
	if err != nil {
		return nil, err
	}
	return resp.Tenants, nil
}

// EndSession evicts a tenant session, unregistering its watches; an
// empty name evicts the connection's current session.
func (c *Client) EndSession(name string) error {
	_, err := c.Do(&server.Request{Cmd: "endsession", Session: name})
	return err
}

// Deltas drains this connection's tenant session inbox: the watch
// deltas other tenants' updates caused in this session's namespace,
// coalesced since the last drain. (The session's own updates return
// their deltas directly on the update response.)
func (c *Client) Deltas() ([]server.WatchDelta, error) {
	resp, err := c.Do(&server.Request{Cmd: "deltas"})
	if err != nil {
		return nil, err
	}
	return resp.Deltas, nil
}
