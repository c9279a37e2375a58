package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/match"
)

// The wire protocol is newline-delimited JSON over TCP: one Request per
// line from the client, one Response per line from the server, matched by
// Id. Requests on one connection are processed in order; concurrency
// comes from multiple connections, bounded by Config.MaxConcurrent.
// Lines end in "\n" or "\r\n", empty ones are skipped, a last line need
// not be terminated, and requests may be pipelined (LineReader, host.go).
// A line over the server's cap is answered, with id 0, by
// "bad request: line exceeds N bytes" and the connection is closed.
//
// The envelope has one codec (codec.go), byte-identical to encoding/json:
// AppendRequest/AppendResponse write what json.Marshal writes, and
// DecodeRequest/DecodeResponse read that form, escaped strings and
// whitespace included, without reflection. Anything else falls back to
// json.Unmarshal on a zero value — null, a key that is not a field's exact
// name or is repeated, a number that is not an integer where one is
// wanted, trailing bytes, an id list or batch spelled as an array, any
// syntax or type error — so every line decodes to encoding/json's value or
// error, a partly decoded id included. Rare nested values (stats rows,
// tenants, obs, profile) go through encoding/json one field at a time.
//
// Commands. One table (commands.go) serves qgpd and the cluster front end
// (internal/cluster.Frontend), so a request both serve is answered alike;
// where the answers differ by design, the entry says so. Both serve:
//
//	ping      — liveness check; a qgpd session also reports its fragment
//	            state (node/owned counts) so cluster supervision can
//	            verify worker health
//	gen       — generate a synthetic graph into the session
//	load      — load a graph from inline Data: the graph text format, a
//	            JSON document, or the binary graph format as base64
//	update    — apply a mutation batch to the session graph; a cluster
//	            coordinator sends one combined batch per worker that can
//	            also carry newly owned nodes (Owned: the coordinator
//	            assigns nodes the batch created to this worker); the front
//	            end refuses Owned. The reply's Deltas list every watch with
//	            its affected count: the candidates it re-judged (a counted
//	            watch's whose counts moved, any other's that its reach plan
//	            named). A qgpd reply's Total is the widest group's count
//	            plus the nodes Owned added (those only when a watch
//	            stands). A fragment session's reply lists only the watches
//	            whose answers changed (no Deltas when none did): the
//	            coordinator knows the rest, and sums the workers' Totals
//	watch     — register a standing pattern; every later update reports
//	            its answer-set delta (incremental maintenance, §5.2 remark)
//	unwatch   — remove a standing pattern
//	stats     — summary + top triple classes of the session graph
//	match     — evaluate a QGP (sequential engines)
//	partition — each fragment's node count and their skew: qgpd partitions
//	            its graph as asked, the front end reports the live cluster
//	metrics   — snapshot of the server's metrics registry (counters,
//	            gauges, histograms) as a JSON document in Obs, so a
//	            newline-JSON client can scrape a session without the
//	            debug HTTP listener; empty ({}) when the server was
//	            built without a registry
//	explain   — rank a QGP's matching order without executing it: for
//	            every positive pattern the order, each step's label-class
//	            size and the estimate it was ranked by, as a JSON document
//	            in Profile (the front end's holds one per fragment)
//	profile   — execute a match (Pattern) or an update (Updates) traced,
//	            and return its trace record (obs.TraceRecord) in Profile
//	            alongside the normal response fields: timed spans, counts
//	            (answers; batch, edits, nodes, affected) and, for a match,
//	            the engine's profile (prefilter sizes, order, bound origin)
//	            as the attachment. The front end's record nests each
//	            worker's under the span that waited for it
//
// Only qgpd, whose session holds a graph of its own, serves
//
//	rule      — evaluate a QGAR (support, confidence, matches)
//	rpqfilter — evaluate a QGP, then filter by a quantified path constraint
//	fragment  — load a d-hop-preserving fragment (subgraph + owned nodes):
//	            the session becomes a cluster worker; match and watch then
//	            answer only for the owned focus candidates. Data as for
//	            load; a coordinator ships the binary format
//
// and only the multi-tenant front end (over internal/tenant) the session
// vocabulary:
//
//	session    — attach the connection to a named tenant session
//	             (Session names it; empty creates a fresh
//	             connection-scoped one). Each tenant holds a private
//	             watch namespace over the one shared graph.
//	sessions   — list the live tenant sessions (Response.Tenants)
//	endsession — evict a tenant session (Session names it; empty evicts
//	             the connection's current one), unregistering its watches
//	deltas     — drain the tenant's pending watch deltas: changes other
//	             tenants' updates caused in this tenant's namespace,
//	             coalesced since the last drain. A delta with Resync set
//	             means the coalesced state was dropped (inbox overflow,
//	             or an update raced the watch's registration): re-read
//	             the answer set instead of applying deltas.
//
// The front end may refuse a command under per-tenant admission control
// (rate limits, update budgets): the error response then carries
// Response.RetryAfterMS, the backoff after which capacity returns.
//
// The session graph persists across requests on the same connection.
//
// Id lists. Every list of node ids — matches, identified, a watch delta's
// added/removed, a fragment's owned — is an IDList. It is written in one
// form only, a JSON string: the base64 (standard alphabet, padded) of one
// signed varint per id, each the difference to the id
// before it and the first the id itself. An ascending answer set costs a
// byte or two per id instead of a decimal number, and neither side walks
// it through reflection. A hand-typed request may still spell a list as a
// plain array, "owned":[0,1]; the reply is packed either way. To read one:
// base64 -d, then decode zigzag varints (binary.Varint) and keep a
// running sum — "matches":"AAQG" is 00 04 06, deltas 0 +2 +3, ids 0 2 5.
//
// Mutation batches. The updates of an update request are a Batch, written
// in one form only as well, a JSON string: the base64 of a label table —
// its length as an unsigned varint, then each label as a length and its
// bytes — followed by the ops until the block ends, each one opcode byte
// (1 addNode, 2 addEdge, 3 removeEdge, 4 removeNode), from and to as
// signed varints and the label as an unsigned index into the table. A
// batch travels from client to front end and on to every fragment copy it
// concerns, and each of them decodes it: packed, an 8-op batch is a third
// of the bytes and of the decoding time of the array of objects. A
// hand-typed request may still spell that array,
// "updates":[{"op":"addEdge","from":1,"to":2,"label":"follow"}] —
// "updates":"AQZmb2xsb3cCAgQA" packed: 01 06 "follow", then 02 02 04 00.

// Request is one client command.
type Request struct {
	ID  int64  `json:"id"`
	Cmd string `json:"cmd"`

	// gen
	Kind string `json:"kind,omitempty"` // social | knowledge | smallworld
	Size int    `json:"size,omitempty"`
	Seed int64  `json:"seed,omitempty"`

	// load / fragment
	Format string `json:"format,omitempty"` // text (default) | json | binary (graph.WriteBinary, base64 in Data)
	Data   string `json:"data,omitempty"`

	// match / rpqfilter / rule
	Pattern string `json:"pattern,omitempty"` // QGP DSL
	Engine  string `json:"engine,omitempty"`  // qmatch (default) | qmatchn | enum
	Budget  int64  `json:"budget,omitempty"`  // extension budget (0 = server default)
	Limit   int    `json:"limit,omitempty"`   // cap returned matches (0 = all)

	// partition
	Workers int `json:"workers,omitempty"`
	D       int `json:"d,omitempty"`

	// rule
	Consequent string  `json:"consequent,omitempty"` // Q2 DSL; Pattern is Q1
	Eta        float64 `json:"eta,omitempty"`        // confidence threshold

	// rpqfilter
	Constraint string `json:"constraint,omitempty"` // "expr within N quant"

	// stats
	TopK int `json:"topK,omitempty"`

	// update
	Updates Batch `json:"updates,omitempty"`

	// watch / unwatch: the watch's name (Pattern carries the QGP for
	// watch).
	Watch string `json:"watch,omitempty"`

	// session / endsession (multi-tenant front end): the tenant session
	// name. Empty on session means "create a fresh connection-scoped
	// session"; empty on endsession means "the connection's current one".
	Session string `json:"session,omitempty"`

	// fragment / update: the owned focus candidates, as node ids local to
	// the fragment subgraph carried in Data. For fragment this is the full
	// owned set; for an update on a fragment session it is the nodes to add
	// to it — an update batch from a cluster coordinator carries the nodes
	// it assigns to this worker inline, so routing one global batch costs
	// one round trip. Nothing else rides along: the worker finds the
	// candidates the batch can flip over its own fragment.
	Owned IDList `json:"owned,omitempty"`

	// Trace is hop plumbing, not a client option: a cluster coordinator
	// sets it on the match and update requests of a traced request to its
	// trace id. The worker traces its share under that id and returns the
	// record in Response.Profile, where the coordinator nests it.
	Trace uint64 `json:"trace,omitempty"`
}

// UpdateSpec is one graph mutation in the wire format of the update
// command. Op is "addNode" (Label), "addEdge"/"removeEdge" (From, To,
// Label) or "removeNode" (From; isolates the node, ids stay stable).
type UpdateSpec struct {
	Op    string `json:"op"`
	From  int64  `json:"from,omitempty"`
	To    int64  `json:"to,omitempty"`
	Label string `json:"label,omitempty"`
}

// ToUpdates translates wire-format update specs into the graph's mutation
// vocabulary, keeping of each spec the fields its op uses. It is the one
// place a wire id becomes a graph.NodeID, so it is where an id that is not
// one is refused: narrowed, it would name some other node, and every later
// check would see an id in range.
func ToUpdates(specs []UpdateSpec) ([]graph.Mutation, error) {
	return AppendUpdates(nil, specs)
}

// AppendUpdates is ToUpdates appending to dst, for a caller that keeps one
// mutation slice from batch to batch; it returns nil on error.
func AppendUpdates(dst []graph.Mutation, specs []UpdateSpec) ([]graph.Mutation, error) {
	nodeID := func(i int, id int64) (graph.NodeID, error) {
		if id < 0 || id > math.MaxInt32 {
			return 0, fmt.Errorf("update %d: %s names node %d, outside [0, %d]", i, specs[i].Op, id, math.MaxInt32)
		}
		return graph.NodeID(id), nil
	}
	muts := slices.Grow(dst, len(specs))
	for i, u := range specs {
		// batchOps is in opcode order, and the opcodes are graph.MutationOp's values.
		m := graph.Mutation{Op: graph.MutationOp(slices.Index(batchOps[1:], u.Op) + 1)}
		var err error
		switch m.Op {
		case graph.MutAddNode:
			m.Label = u.Label
		case graph.MutAddEdge, graph.MutRemoveEdge:
			m.Label = u.Label
			if m.From, err = nodeID(i, u.From); err == nil {
				m.To, err = nodeID(i, u.To)
			}
		case graph.MutRemoveNode:
			m.From, err = nodeID(i, u.From)
		default:
			err = fmt.Errorf("update %d: unknown op %q", i, u.Op)
		}
		if err != nil {
			return nil, err
		}
		muts = append(muts, m)
	}
	return muts, nil
}

// Response is one server reply.
type Response struct {
	ID    int64  `json:"id"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// RetryAfterMS accompanies an admission-control error from the
	// multi-tenant front end: how long (milliseconds) until the tenant's
	// exhausted rate or update budget refills. Zero on every other error.
	RetryAfterMS float64 `json:"retryAfterMs,omitempty"`

	// ping: Pong is always set; a session holding a cluster fragment
	// additionally reports Fragment with its owned-candidate count (and
	// Nodes/Edges above), so supervision probes can verify a worker
	// still holds the state the coordinator expects.
	Pong     bool `json:"pong,omitempty"`
	Fragment bool `json:"fragment,omitempty"`
	Owned    int  `json:"ownedCount,omitempty"`

	// gen / load
	Nodes int `json:"nodes,omitempty"`
	Edges int `json:"edges,omitempty"`

	// match family. Total counts the answers before Limit; a qgpd update
	// reply's counts its work: the widest watch group's re-judged
	// candidates plus the nodes Owned added while a watch stands.
	Matches   IDList         `json:"matches,omitempty"`
	Total     int            `json:"total,omitempty"`
	Metrics   *match.Metrics `json:"metrics,omitempty"`
	ElapsedMS float64        `json:"elapsedMs,omitempty"`

	// rule
	Support    int     `json:"support,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	Lift       float64 `json:"lift,omitempty"`
	Identified IDList  `json:"identified,omitempty"`

	// partition
	Skew      float64 `json:"skew,omitempty"`
	Fragments []int   `json:"fragments,omitempty"` // per fragment, the nodes it materializes

	// stats
	Labels  int      `json:"labels,omitempty"`
	Triples []string `json:"triples,omitempty"`
	// TripleRows carries every triple class in structured, name-based
	// form (not capped by TopK the way the rendered Triples are). A
	// cluster coordinator sums per-fragment rows by class — worker
	// sessions report owned-restricted stats, and ownership partitions
	// the nodes, so the sums are exact — and LabelNames (distinct node
	// labels present, sorted) unions the same way.
	TripleRows []TripleRow `json:"tripleRows,omitempty"`
	LabelNames []string    `json:"labelNames,omitempty"`

	// update: per-watch answer deltas; watch: the initial answer set is
	// returned in Matches. On the multi-tenant front end an update's
	// Deltas carry only the writing tenant's own watches; other tenants
	// pick up theirs with the deltas command.
	Deltas []WatchDelta `json:"deltas,omitempty"`

	// session (multi-tenant front end): the session name the connection
	// is now attached to — echoes Request.Session or reports the
	// generated name of a fresh connection-scoped session.
	Session string `json:"session,omitempty"`

	// sessions (multi-tenant front end): the live tenant sessions.
	Tenants []TenantInfo `json:"tenants,omitempty"`

	// metrics: the registry snapshot (obs.Snapshot shape). RawMessage,
	// not a typed struct, so the wire client needs no dependency on the
	// registry's internal layout and the document round-trips verbatim.
	Obs json.RawMessage `json:"obs,omitempty"`

	// explain / profile / a traced hop: the explain document, or the
	// request's trace record (obs.TraceRecord). RawMessage for the same
	// reason as Obs — and so the cluster coordinator can embed each
	// worker's plan verbatim in its merged explain document.
	Profile json.RawMessage `json:"profile,omitempty"`
}

// WatchDelta reports how one update batch changed a standing pattern's
// answers.
type WatchDelta struct {
	Watch    string `json:"watch"`
	Added    IDList `json:"added,omitempty"`
	Removed  IDList `json:"removed,omitempty"`
	Affected int    `json:"affected"` // focus candidates re-judged
	// Resync (multi-tenant front end, deltas command) means the delta
	// stream for this watch is incomplete — its bounded pending inbox
	// overflowed, or an update raced the watch's registration — and
	// Added/Removed must be ignored: re-read the full answer set
	// (re-register, or re-run the pattern as a match) instead.
	Resync bool `json:"resync,omitempty"`
}

// IDList is a list of node ids with the packed wire form described in the
// protocol header. Only this type knows the form; everything else treats
// it as the []int64 it is.
type IDList []int64

// IDs is a list of graph nodes as the wire's id list; an empty one is nil,
// as an absent list decodes.
func IDs(nodes []graph.NodeID) IDList {
	if len(nodes) == 0 {
		return nil
	}
	out := make(IDList, len(nodes))
	for i, v := range nodes {
		out[i] = int64(v)
	}
	return out
}

// MarshalText writes the packed form's base64 (appendIDs, the codec's
// writer), which encoding/json quotes like any string instead of
// re-scanning it as it would a json.Marshaler's output.
func (l IDList) MarshalText() ([]byte, error) { return appendIDs(nil, l), nil }

// UnmarshalJSON reads the packed form or a plain JSON array (or null). The
// input is a peer's: a malformed block is an error, and the list allocated
// is never longer than the block.
func (l *IDList) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' {
		return json.Unmarshal(b, (*[]int64)(l))
	}
	out, err := packedIDs(b)
	if err == nil {
		*l = out
	}
	return err
}

// packedIDs reads the packed form, the JSON string lit.
func packedIDs(lit []byte) (IDList, error) {
	var buf [128]byte
	raw, err := unpacked(buf[:0], lit, "id list")
	if err != nil {
		return nil, err
	}
	count := 0
	for _, c := range raw {
		if c < 0x80 { // the last byte of a varint
			count++
		}
	}
	out := make(IDList, 0, count)
	var prev int64
	for len(raw) > 0 {
		d, n := binary.Varint(raw)
		if n <= 0 {
			return nil, errors.New("id list: truncated or overlong varint")
		}
		raw = raw[n:]
		prev += d
		out = append(out, prev)
	}
	return out, nil
}

// unpacked returns the bytes behind the JSON string b, a peer's packed
// block, in buf if they fit; what names the form in errors.
func unpacked(buf, b []byte, what string) ([]byte, error) {
	s := b[1 : len(b)-1]
	if bytes.IndexByte(s, '\\') >= 0 { // another encoder's escapes, e.g. \/
		var ok bool
		if s, ok = unquote(nil, b); !ok {
			return nil, fmt.Errorf("%s: malformed JSON string", what)
		}
	}
	n := base64.StdEncoding.DecodedLen(len(s))
	raw := slices.Grow(buf[:0], n)[:n]
	n, err := base64.StdEncoding.Decode(raw, s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return raw[:n], nil
}

// Batch is a mutation batch with the packed wire form described in the
// protocol header. Only this type knows the form; everything else treats
// it as the []UpdateSpec it is.
type Batch []UpdateSpec

// batchOps are the ops in opcode order; opcode 0 is never written.
var batchOps = [...]string{"", "addNode", "addEdge", "removeEdge", "removeNode"}

var errBatchBlock = errors.New("batch: truncated block or overlong varint")

// MarshalText writes the packed form's base64 (appendBatch), as IDList's
// does.
func (b Batch) MarshalText() ([]byte, error) { return appendBatch(nil, b) }

// UnmarshalJSON reads the packed form or a plain JSON array (or null). The
// input is a peer's: a malformed block is an error, and neither the label
// table nor the batch allocated is longer than the block.
func (b *Batch) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' {
		return json.Unmarshal(data, (*[]UpdateSpec)(b))
	}
	out, err := packedBatch(data)
	if err == nil {
		*b = out
	}
	return err
}

// packedBatch reads the packed form, the JSON string lit.
func packedBatch(lit []byte) (Batch, error) {
	var buf [128]byte
	raw, err := unpacked(buf[:0], lit, "batch")
	if err != nil {
		return nil, err
	}
	n, w := binary.Uvarint(raw)
	if w <= 0 || n > uint64(len(raw)) { // a label is a byte at least
		return nil, errBatchBlock
	}
	raw = raw[w:]
	var small [4]string // a batch names a label or two: its table stays on the stack
	labels := small[:]
	if n > uint64(len(small)) {
		labels = make([]string, n)
	}
	labels = labels[:n]
	for i := range labels {
		size, w := binary.Uvarint(raw)
		if w <= 0 || size > uint64(len(raw)-w) {
			return nil, errBatchBlock
		}
		labels[i] = string(raw[w : w+int(size)])
		raw = raw[w+int(size):]
	}
	out := make(Batch, 0, len(raw)/4) // an op is four bytes at least
	for len(raw) > 0 {
		code := raw[0]
		if code == 0 || int(code) >= len(batchOps) {
			return nil, fmt.Errorf("batch: unknown opcode %d", code)
		}
		raw = raw[1:]
		var ends [2]int64
		for i := range ends {
			v, w := binary.Varint(raw)
			if w <= 0 {
				return nil, errBatchBlock
			}
			ends[i], raw = v, raw[w:]
		}
		li, w := binary.Uvarint(raw)
		if w <= 0 {
			return nil, errBatchBlock
		}
		raw = raw[w:]
		if li >= n {
			return nil, fmt.Errorf("batch: label %d of a table of %d", li, n)
		}
		out = append(out, UpdateSpec{Op: batchOps[code], From: ends[0], To: ends[1], Label: labels[li]})
	}
	return out, nil
}

// TripleRow is one edge class of the stats command in structured form:
// label names plus the class aggregates. Unlike the human-rendered
// Triples strings it is complete (every class, no TopK cap) and
// machine-mergeable, which is what lets the cluster front end fan stats
// out to fragment workers and sum exactly.
type TripleRow struct {
	Src   string `json:"src"`
	Edge  string `json:"edge"`
	Dst   string `json:"dst"`
	Count int    `json:"count"`
	Srcs  int    `json:"srcs"`
	Dsts  int    `json:"dsts"`
}

// TenantInfo describes one live tenant session of the multi-tenant front
// end (the sessions command). It lives in this package — not
// internal/tenant — so wire clients need no dependency on the session
// manager's internals.
type TenantInfo struct {
	Name       string `json:"name"`
	Watches    int    `json:"watches"`              // registered standing patterns
	Writes     int64  `json:"writes"`               // update batches this tenant applied
	Reads      int64  `json:"reads"`                // match/explain reads this tenant issued
	Pending    int    `json:"pending,omitempty"`    // watches with undrained deltas
	PendingIDs int    `json:"pendingIds,omitempty"` // undrained coalesced ids across those watches
	Throttled  int64  `json:"throttled,omitempty"`  // commands refused by admission control
	Overflows  int64  `json:"overflows,omitempty"`  // pending inboxes dropped at the cap (watch marked Resync)
	IdleMS     int64  `json:"idleMs"`               // since last command
	Conns      int    `json:"conns"`                // attached connections
}
