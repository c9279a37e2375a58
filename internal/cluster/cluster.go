// Package cluster implements the paper's coordinator/worker architecture
// (§5) as a real multi-node subsystem: a Coordinator fragments a graph
// with the d-hop-preserving partition of internal/partition, ships each
// fragment to a worker over the qgpd wire protocol, fans quantified
// matches out to the workers, and routes update batches to only the
// workers whose fragments they change, where internal/dynamic.Matcher
// maintains standing answers incrementally and counts the work.
//
// Workers are stock qgpd processes: the fragment protocol command and
// update's owned field (see internal/server) turn an ordinary session into
// a fragment holder. The Transport interface abstracts how a worker is reached — Dial
// for a TCP worker, InProcess for an embedded one — so the same cluster
// runs across machines or inside a single test binary.
//
// High availability (ha.go) layers on this seam: with Config.Replicas=k
// each fragment is also shipped to k-1 warm replica sessions placed by a
// WorkerPool, a failed primary is promoted over or re-shipped from the
// authoritative graph, and Config.Journal records the durable state that
// internal/ha reads back after a coordinator restart and Recover rebuilds
// the coordinator from.
//
// Correctness rests on Lemma 9(1): whether a node answers a pattern Q
// depends only on the subgraph induced by its d-hop neighborhood, where
// d = core.RequiredHops(Q). Each worker owns a set of focus
// candidates whose full d-hop neighborhoods are materialized locally, so
// fragment-local evaluation restricted to owned nodes is exact and the
// coordinator's merge is a disjoint union.
package cluster

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Config tunes a Coordinator.
type Config struct {
	// D is the hop radius the fragmentation preserves (default 2).
	// Patterns with RequiredHops > D are rejected: fragment-local
	// evaluation would silently lose answers.
	D int
	// Engine is the per-worker matching engine ("qmatch", "qmatchn",
	// "enum"; empty means qmatch).
	Engine string
	// Budget is the extension budget forwarded with every worker match
	// request (0 uses each worker's default).
	Budget int64
	// Replicas is the number of copies of each fragment (k). The
	// default (0 or 1) keeps the primary-only fragmentation of the
	// original design. With k > 1 each fragment is also shipped to k-1
	// warm replica sessions obtained from Pool (placed on the
	// least-loaded endpoints by partition.OwnerMap owned counts, off
	// the primary's endpoint when possible); update batches are
	// mirrored to replicas after the primary applies them, so a
	// replica can be promoted on primary failure without re-shipping,
	// and read-only fan-outs (Match, Explain, Stats) are routed
	// to the least-loaded live copy of each fragment, scaling read
	// throughput with k.
	Replicas int
	// Pool supplies fresh worker sessions for replica placement and
	// failover re-shipping. Optional when Replicas <= 1: without it, a
	// worker failure that no warm replica can cover fail-stops the
	// coordinator.
	Pool WorkerPool
	// Journal, when set, persists the coordinator's graph and receives
	// every accepted update batch (journaled before fan-out) and watch
	// change, so Recover can rebuild the coordinator after a restart.
	// Strictly off the hot path when nil.
	Journal UpdateJournal
	// Logf receives coordinator diagnostics — failovers, replica
	// promotions, re-ships, dropped mirrors; nil means log.Printf.
	// Library users pass a no-op func to silence the chatter or their
	// own sink to redirect it, like Frontend and ha.Monitor.
	Logf func(format string, args ...interface{})
	// Metrics, when set, receives the coordinator's counters and
	// histograms: per-operation counts and latency, per-worker fan-out
	// round-trip histograms, routed-vs-skipped worker counts, update
	// batch and affected-set sizes, and failover/mirror events (names
	// under cluster.*). Nil disables instrumentation at zero cost.
	Metrics *obs.Registry
	// Tracer, when set, traces Match, Update, Watch, Stats and Explain: a
	// process-unique id and one record per request with per-worker spans
	// (plan, wire round trip, merge), so a slow fan-out can be attributed
	// to a specific worker/fragment. A Frontend traces every request it
	// serves with it. Nil disables tracing.
	Tracer *obs.Tracer
}

// Coordinator is the paper's Sc: it holds the authoritative global graph,
// knows which worker owns and materializes which nodes, and drives the
// workers through the wire protocol. Methods are safe for concurrent use;
// requests to distinct workers run in parallel, and read-only operations
// (Match, Explain, Stats, status inspection) additionally run
// concurrently with each other under the read side of mu, routed across
// fragment copies (readroute.go).
type Coordinator struct {
	mu  sync.RWMutex
	cfg Config
	om  coordMetrics
	// g is the authoritative global graph, the one New or Recover adopted.
	// Its pointer never changes, and Config.Journal persists it without a
	// copy of its own.
	g *graph.Graph
	// vg maintains g in place: Update applies each accepted batch as a
	// delta through the versioned core instead of rebuilding the graph,
	// and hands the pre-batch OldView to update planning and failover
	// re-shipping.
	vg *graph.Versioned
	// ball and upd are Update's scratch — the ball around a batch's
	// insertions, and everything else a batch needs only while it runs;
	// guarded by the write side of mu, like the graph they describe.
	ball    dynamic.BallScratch
	upd     updateScratch
	workers []*worker
	watches map[string]string // watch name → pattern DSL (for failover re-registration)
	closed  bool
	// failed is set when a worker failed mid-update with no failover
	// left, leaving fragments possibly inconsistent; every later
	// request is refused.
	failed error
	// batches counts accepted update batches, for UpdateResult.Version.
	// Guarded by the write side of mu.
	batches uint64
}

// replica is one worker session holding a copy of a fragment. The
// primary additionally holds the fragment's standing watches; warm
// replicas mirror only the graph and owned set.
type replica struct {
	t        Transport
	endpoint int // pool endpoint hosting the session, -1 unknown
	// inflight counts read-routed requests currently on this copy; an
	// atomic because the read path runs under c.mu's read side only.
	inflight atomic.Int64
	// suspect marks a copy whose transport failed a routed read: reads
	// skip it (no failover runs under the read lock) and the next
	// write-locked operation prunes or replaces it.
	suspect atomic.Bool
}

// worker is the coordinator's book-keeping for one fragment. The
// invariant between updates: every copy's session graph equals the
// subgraph of c.g induced by the nodes ids holds as materialized, with
// local ids ids.toGlobal[local]; the nodes ids holds as owned are the
// fragment's answer set.
type worker struct {
	id int
	// copies are the sessions holding the fragment: the primary at index
	// 0, then the warm replicas in promotion order. There is always a
	// primary, even a dead one waiting for failover.
	copies  []*replica
	dropped int // replicas discarded over the coordinator's lifetime (drop)
	ids     idSpace
}

// New fragments g across the given worker transports (one fragment per
// transport) and ships each fragment with the fragment command; with
// cfg.Replicas=k > 1 each fragment is also shipped to k-1 replica
// sessions from cfg.Pool. New adopts g, as Recover does: g becomes the
// coordinator's authoritative graph, which Graph copies and updates
// advance in place, so there is one graph in memory and the caller must
// not touch g afterwards (a caller that keeps using it passes g.Clone()).
// Edge-set semantics already hold for g, Finalize having collapsed
// duplicate parallel edges.
//
// With cfg.Journal set, g becomes the durable graph and the durable watch
// set is cleared (UpdateJournal.SetGraph): New is for a new graph, a
// restart over what the journal holds goes through Recover.
//
// On success the coordinator owns every transport it holds — ts and any
// pool acquisitions — and releases them in Close. On error the caller
// keeps ownership of ts; sessions New acquired from the pool are closed
// before returning.
func New(g *graph.Graph, ts []Transport, cfg Config) (*Coordinator, error) {
	c, err := build(g, ts, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Journal != nil {
		if err := cfg.Journal.SetGraph(c.g); err != nil {
			c.closeAcquired(ts)
			return nil, fmt.Errorf("cluster: journal: %w", err)
		}
	}
	return c, nil
}

// Recover rebuilds a coordinator after a restart from what the journal
// read back: g is fragmented and shipped as in New and every watch (name →
// pattern DSL) registered in ascending name order. Like New, Recover
// adopts g: it is the graph the journal recovered and goes on persisting,
// and the caller must not touch it afterwards. cfg.Journal is
// attached only once all of that has succeeded, so recovery writes nothing
// to it — it already holds this state — and a failed or interrupted
// recovery leaves the durable state as it was. Ownership of ts is as with
// New.
func Recover(g *graph.Graph, watches map[string]string, ts []Transport, cfg Config) (*Coordinator, error) {
	journal := cfg.Journal
	cfg.Journal = nil
	c, err := build(g, ts, cfg)
	if err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(watches) {
		q, err := core.Parse(watches[name])
		if err == nil {
			_, err = c.Watch(name, q)
		}
		if err != nil {
			c.closeAcquired(ts)
			return nil, fmt.Errorf("cluster: recovering watch %q: %w", name, err)
		}
	}
	c.cfg.Journal = journal
	return c, nil
}

// build is the construction New and Recover share: partition, ownership
// bookkeeping, fragments shipped. g becomes the coordinator's graph, which
// the versioned core owns outright. build never calls cfg.Journal.
func build(g *graph.Graph, ts []Transport, cfg Config) (*Coordinator, error) {
	if len(ts) == 0 {
		return nil, errors.New("cluster: need at least one worker transport")
	}
	if cfg.D <= 0 {
		cfg.D = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Replicas > 1 && cfg.Pool == nil {
		return nil, fmt.Errorf("cluster: %d replicas requested but no worker pool configured", cfg.Replicas)
	}
	p, err := partition.DPar(g, partition.Config{Workers: len(ts), D: cfg.D})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	vg := graph.NewVersioned(g)
	c := &Coordinator{cfg: cfg, g: vg.Graph(), vg: vg, watches: make(map[string]string)}
	c.om = newCoordMetrics(cfg.Metrics, len(ts))
	c.workers = make([]*worker, len(ts))
	for i := range c.workers {
		c.workers[i] = &worker{id: i, copies: []*replica{{t: ts[i], endpoint: endpointOf(ts[i])}}}
	}
	// Ownership bookkeeping comes from the partition's routing-table view;
	// OwnerMap also guarantees each node has exactly one owner.
	owner := p.OwnerMap()
	for v, wid := range owner {
		if wid < 0 {
			return nil, fmt.Errorf("cluster: node %d has no owning fragment", v)
		}
	}
	// Replica placement load is the partition's owned-node count per
	// fragment: the weight a fragment's sessions add to a pool endpoint.
	ownedLoad := p.OwnedCounts()
	err = c.fanOut(func(w *worker) error {
		// Local ids follow the node list's order, here and on a re-ship.
		for _, gv := range p.Fragments[w.id].Nodes {
			w.ids.add(gv)
			if owner[gv] == w.id {
				w.ids.setOwned(gv)
			}
		}
		ship, err := w.shipRequest(g)
		if err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		if _, err := w.copies[0].t.Do(ship); err != nil {
			return &WorkerError{Worker: w.id, Op: "fragment", Err: err}
		}
		for len(w.copies) < cfg.Replicas {
			r, err := c.newCopy(w, ship, ownedLoad[w.id])
			if err != nil {
				return &WorkerError{Worker: w.id, Op: "replicate", Err: err}
			}
			w.copies = append(w.copies, r)
		}
		return nil
	})
	if err != nil {
		c.closeAcquired(ts)
		return nil, err
	}
	return c, nil
}

// coordMetrics holds the coordinator's instruments, resolved from the
// registry once at construction so the fan-out hot path performs only
// atomic operations. With no registry configured every instrument is
// nil, and nil obs instruments are no-ops, so observations need no
// guards.
type coordMetrics struct {
	matchCount, updateCount, watchCount *obs.Counter
	matchMS, updateMS                   *obs.Histogram
	// An update's wait for the write lock and its hold of it, from
	// request to lock and from lock to reply: what a batch makes the
	// routed reads and the next batch wait for.
	updateLockWait, updateLockHold *obs.Histogram
	// watchGroups is the number of distinct standing patterns (watchCount
	// counts registered names); affectedRatio the last batch's
	// AffectedSize over |V|, in parts per million.
	watchGroups, affectedRatio *obs.Gauge
	// Per-worker wire round-trip latency: a slow fan-out is attributed
	// to a specific worker/fragment here even without tracing.
	workerMatchMS, workerUpdateMS []*obs.Histogram
	// Update routing: how wide each batch fanned out, how many workers
	// were skipped, and the size of the batch and of the work it cost —
	// the "work proportional to the change" observables.
	updateBatch, updateAffected, updateFanout *obs.Histogram
	workersRouted, workersSkipped             *obs.Counter
	// Failover events (the mechanics in ha.go; internal/ha's monitor
	// counts its policy decisions separately).
	promotions, reships, mirrorDrops *obs.Counter
	// Read routing: how many routed reads landed on the primary vs a
	// warm replica, how many fell back to the write-locked failover
	// path, and how many copies were marked suspect by a failed read.
	readPrimary, readReplica, readFallbacks, readSuspects *obs.Counter
}

func newCoordMetrics(reg *obs.Registry, workers int) coordMetrics {
	om := coordMetrics{
		matchCount:     reg.Counter("cluster.match.count"),
		updateCount:    reg.Counter("cluster.update.count"),
		watchCount:     reg.Counter("cluster.watch.count"),
		watchGroups:    reg.Gauge("cluster.watch.groups"),
		affectedRatio:  reg.Gauge("cluster.update.affected_ratio"),
		matchMS:        reg.Histogram("cluster.match.ms", obs.LatencyBucketsMS),
		updateMS:       reg.Histogram("cluster.update.ms", obs.LatencyBucketsMS),
		updateLockWait: reg.Histogram("cluster.update.lock_wait.ms", obs.LatencyBucketsMS),
		updateLockHold: reg.Histogram("cluster.update.lock_hold.ms", obs.LatencyBucketsMS),
		updateBatch:    reg.Histogram("cluster.update.batch_size", obs.SizeBuckets),
		updateAffected: reg.Histogram("cluster.update.affected_size", obs.SizeBuckets),
		updateFanout:   reg.Histogram("cluster.update.fanout", obs.SizeBuckets),
		workersRouted:  reg.Counter("cluster.update.workers_routed"),
		workersSkipped: reg.Counter("cluster.update.workers_skipped"),
		promotions:     reg.Counter("cluster.failover.promotions"),
		reships:        reg.Counter("cluster.failover.reships"),
		mirrorDrops:    reg.Counter("cluster.replica.mirror_drops"),
		readPrimary:    reg.Counter("cluster.read.primary"),
		readReplica:    reg.Counter("cluster.read.replica"),
		readFallbacks:  reg.Counter("cluster.read.fallbacks"),
		readSuspects:   reg.Counter("cluster.read.suspects"),
	}
	om.workerMatchMS = make([]*obs.Histogram, workers)
	om.workerUpdateMS = make([]*obs.Histogram, workers)
	for i := 0; i < workers; i++ {
		om.workerMatchMS[i] = reg.Histogram(fmt.Sprintf("cluster.worker.%d.match.ms", i), obs.LatencyBucketsMS)
		om.workerUpdateMS[i] = reg.Histogram(fmt.Sprintf("cluster.worker.%d.update.ms", i), obs.LatencyBucketsMS)
	}
	return om
}

// endpointOf reports which pool endpoint hosts a transport, -1 when the
// transport does not know (e.g. caller-supplied embedded workers).
func endpointOf(t Transport) int {
	if e, ok := t.(Endpointer); ok {
		return e.Endpoint()
	}
	return -1
}

// Graph returns a snapshot of the coordinator's authoritative global
// graph. The snapshot is a deep copy: the live graph mutates in place
// under Update, and callers (oracles, stats, tests) hold snapshots
// across updates.
func (c *Coordinator) Graph() *graph.Graph {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.g.Clone()
}

// Size returns the authoritative graph's node and edge counts — what
// Graph() would report, without the |G| copy.
func (c *Coordinator) Size() (nodes, edges int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.g.NumNodes(), c.g.NumEdges()
}

// D returns the hop radius the fragmentation preserves.
func (c *Coordinator) D() int { return c.cfg.D }

// FragmentSizes returns each worker's materialized node count.
func (c *Coordinator) FragmentSizes() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sizes := make([]int, len(c.workers))
	for i, w := range c.workers {
		sizes[i] = len(w.ids.toGlobal)
	}
	return sizes
}

// refuseLocked reports why the coordinator no longer serves requests, or
// nil. Callers must hold c.mu.
func (c *Coordinator) refuseLocked() error {
	if c.closed {
		return errors.New("cluster: coordinator closed")
	}
	if c.failed != nil {
		return fmt.Errorf("cluster: coordinator failed earlier: %w", c.failed)
	}
	return nil
}

// fanOut runs fn once per worker concurrently (each) and returns the
// first error (by worker id) if any failed.
func (c *Coordinator) fanOut(fn func(w *worker) error) error {
	errs := make([]error, len(c.workers))
	each(len(c.workers), func(i int) { errs[i] = fn(c.workers[i]) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// each runs fn(i) for every i in [0, n) concurrently and returns once all
// have. fn(0) runs on the calling goroutine, whose stack has already grown
// to what encoding a request takes; a fresh goroutine starts from the
// minimum and grows again. So n = 1 starts no goroutine, and waits for
// none.
func each(n int, fn func(i int)) {
	switch n {
	case 0:
		return
	case 1:
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	fn(0)
	wg.Wait()
}

// mergeRuns merges ascending runs into one ascending list, consuming the
// runs. Ownership partitions the nodes, so the workers' runs are disjoint
// and this is the coordinator's whole step of PQMatch (§5): a disjoint
// union. An id that appears twice all the same, within a run or in two, is
// kept once.
func mergeRuns(runs [][]graph.NodeID) []graph.NodeID {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]graph.NodeID, 0, total)
	for {
		least := -1
		for i, r := range runs {
			if len(r) > 0 && (least < 0 || r[0] < runs[least][0]) {
				least = i
			}
		}
		if least < 0 {
			return out
		}
		if v := runs[least][0]; len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
		runs[least] = runs[least][1:]
	}
}
