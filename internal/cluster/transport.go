package cluster

import (
	"net"

	"repro/internal/client"
	"repro/internal/graph"
	"repro/internal/server"
)

// Transport is one worker endpoint speaking the qgpd wire protocol. A
// *client.Client satisfies it, so any reachable qgpd process can be a
// worker; InProcess provides the embedded equivalent for tests and
// single-machine deployments.
type Transport interface {
	Do(req *server.Request) (*server.Response, error)
	Close() error
}

// WorkerPool supplies fresh worker transports for replica placement and
// failover re-shipping. Implementations (internal/ha) re-dial qgpd
// addresses or spawn embedded workers, tracking per-endpoint load.
type WorkerPool interface {
	// Get returns a fresh worker session, preferring the least-loaded
	// endpoint whose id is not in avoid (the coordinator passes the
	// endpoints already holding a copy of the fragment, so replicas do
	// not co-locate with their primary when the pool has a choice).
	// weight is the load the session will add — the fragment's
	// owned-node count from partition.OwnerMap. The returned transport
	// reports its endpoint back to the pool when closed.
	Get(weight int, avoid map[int]bool) (Transport, int, error)
}

// Endpointer is optionally implemented by transports that know which
// pool endpoint hosts them; the coordinator uses it to keep replicas off
// their primary's endpoint. Transports without it report endpoint -1.
type Endpointer interface {
	Endpoint() int
}

// ReadTracker is optionally implemented by pool-backed transports
// (ha.pooled): the coordinator's replica-read router brackets every
// routed read with ReadStart/ReadEnd and consults ReadLoad — the
// endpoint-wide in-flight routed-read count — when picking the
// least-loaded live copy of a fragment. Counting at the endpoint rather
// than the copy means reads issued by other fragments and sessions on
// the same endpoint steer routing too. Transports without it are scored
// by the coordinator's own per-copy in-flight count.
type ReadTracker interface {
	ReadStart()
	ReadEnd()
	ReadLoad() int
}

// UpdateJournal receives the coordinator's durable state: the graph a
// new cluster is built over and every accepted update batch and watch
// change. internal/ha implements it over internal/store's
// snapshot+journal; after a restart what it read back goes to Recover,
// which re-fragments, re-ships and re-registers without a call here.
//
// The journal persists the coordinator's graph and keeps none of its own:
// g is the live graph, which the journal reads only inside SetGraph and
// AppendBatch, while the coordinator is not changing it; every batch
// passed to AppendBatch is already applied to it; and an AppendBatch error
// means the batch is not durable, so the coordinator rolls it back.
type UpdateJournal interface {
	// SetGraph: g, the coordinator's graph, replaces the durable state and
	// the watch set is cleared. New calls it once fragments are shipped;
	// it is never called on recovery.
	SetGraph(g *graph.Graph) error
	// AppendBatch records an accepted update batch; the coordinator
	// calls it under its write lock, after applying the batch to its
	// graph and before fanning it out to the workers.
	AppendBatch(specs []server.UpdateSpec) error
	// WatchRegistered and WatchRemoved record the standing-watch set.
	WatchRegistered(name, pattern string) error
	WatchRemoved(name string) error
}

// Dial connects to a stock qgpd process that will act as a worker. Each
// call opens a fresh connection, i.e. a fresh worker session.
func Dial(addr string) (Transport, error) {
	return client.Dial(addr)
}

// InProcess starts an embedded worker: a server.Server speaking the real
// wire protocol over a net.Pipe, so the embedded cluster exercises exactly
// the code paths of a distributed one. Server diagnostics are silenced
// unless cfg.Logf is set (a closing pipe is routine here, not noteworthy).
func InProcess(cfg server.Config) Transport {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	srv := server.New(cfg)
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)
	return client.NewClient(clientEnd)
}

// InProcessN starts n embedded workers with a shared configuration.
func InProcessN(n int, cfg server.Config) []Transport {
	ts := make([]Transport, n)
	for i := range ts {
		ts[i] = InProcess(cfg)
	}
	return ts
}

// CloseAll closes every transport, returning the first error.
func CloseAll(ts []Transport) error {
	var first error
	for _, t := range ts {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
