package cluster

// High-availability mechanics for the coordinator: warm fragment
// replicas, primary failover (promotion or re-ship from the
// authoritative graph), state-verifying probes and replica repair. The
// policy side — when to probe, how many consecutive failures declare a
// worker dead, journal-backed restart recovery — lives in internal/ha;
// this file is the mechanism it drives.
//
// The invariants that make failover exact:
//
//   - A fragment's local id space is its toGlobal order, and
//     graph.Induced preserves the order of its input node list, so
//     re-shipping Induced(state, w.ids.toGlobal) reproduces the exact local
//     id space of the lost session — answer merging and standing-watch
//     deltas keep working unchanged.
//   - A combined update batch (mutations + assigned nodes, one request
//     per contacted worker) reaches replicas only
//     after the primary applied it, so when a primary dies mid-batch
//     every warm replica is still at the pre-batch sync point:
//     promoting one and replaying the batch neither loses nor
//     double-applies mutations (addNode is not idempotent, so this
//     ordering is load-bearing). Mirroring fans out to the replicas
//     concurrently — they are ordered after the primary, not after each
//     other.
//   - Warm replicas carry no standing watches; promotion registers them
//     (at the promoted session's current sync point) before the failed
//     operation is retried, so the retried batch reports exactly the
//     delta the lost primary would have.

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/client"
	"repro/internal/graph"
	"repro/internal/server"
)

// WorkerError identifies which worker failed and during which operation,
// so a fail-stopped coordinator's refusals name the culprit instead of a
// bare wrapped error.
type WorkerError struct {
	// Worker is the fragment id (coordinator worker index).
	Worker int
	// Endpoint is the pool endpoint hosting the failed session, -1 when
	// unknown.
	Endpoint int
	// Op is the wire operation in flight: "fragment", "replicate",
	// "update", "watch", "unwatch", "match", "probe".
	Op  string
	Err error
}

func (e *WorkerError) Error() string {
	where := ""
	if e.Endpoint >= 0 {
		where = fmt.Sprintf(" (endpoint %d)", e.Endpoint)
	}
	return fmt.Sprintf("cluster: worker %d%s failed during %s: %v", e.Worker, where, e.Op, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// sendPrimary sends req to w's current primary. A transport-level
// failure (the worker is unreachable or died mid-request) triggers
// failover — promote a warm replica or re-ship the fragment from state,
// the authoritative graph at the fragment's current sync point — and a
// retry on the new primary. A protocol-level failure (the worker
// answered with an error response, client.ServerError) is returned as
// is: the worker is alive, so killing it would not help.
func (c *Coordinator) sendPrimary(w *worker, op string, req *server.Request, state graph.View) (*server.Response, error) {
	// Each failover consumes a warm replica or a pool session, so the
	// retry loop is bounded: one failover per copy, and one more for a
	// re-ship. A failover that fails counts as one of them, and whatever
	// session the last one put in place is still tried. The bound is
	// captured up front: failover shrinks w.copies.
	failovers := len(w.copies) + 1
	for {
		resp, err := w.copies[0].t.Do(req)
		if err == nil {
			return resp, nil
		}
		var se *client.ServerError
		if errors.As(err, &se) {
			return nil, &WorkerError{Worker: w.id, Endpoint: w.copies[0].endpoint, Op: op, Err: err}
		}
		ferr := errors.New("no worker session survived failover")
		for ferr != nil && failovers > 0 {
			failovers--
			ferr = c.failover(w, state)
		}
		if ferr != nil {
			return nil, &WorkerError{Worker: w.id, Endpoint: w.copies[0].endpoint, Op: op,
				Err: fmt.Errorf("%v; failover: %w", err, ferr)}
		}
	}
}

// failover replaces w's dead primary: the first warm replica that
// accepts the standing watches is promoted; with none left, the
// fragment is re-shipped from state to a fresh pool session. Callers
// must hold c.mu (directly or via the fan-out running under it) and
// pass the authoritative graph matching the fragment's current sync
// point. On error the fragment has no serving primary, but the
// coordinator is not failed: a later call may succeed once the pool
// recovers.
func (c *Coordinator) failover(w *worker, state graph.View) error {
	w.copies[0].t.Close()
	for len(w.copies) > 1 {
		r := w.copies[1]
		if err := c.enlistWatches(r); err != nil {
			c.drop(w, 1, fmt.Errorf("refused watches during promotion: %w", err))
			continue
		}
		w.copies = w.copies[1:]
		c.om.promotions.Inc()
		c.cfg.Logf("cluster: fragment %d: promoted warm replica on endpoint %d to primary (%d replicas left)", w.id, r.endpoint, len(w.copies)-1)
		return nil
	}
	r, err := c.reship(w, state)
	if err != nil {
		return err
	}
	if err := c.enlistWatches(r); err != nil {
		r.t.Close()
		return fmt.Errorf("re-registering watches on re-shipped fragment: %w", err)
	}
	w.copies[0] = r
	c.om.reships.Inc()
	c.cfg.Logf("cluster: fragment %d: no warm replica left, re-shipped fragment to endpoint %d", w.id, r.endpoint)
	return nil
}

// drop discards warm replica i (i ≥ 1) of w's fragment, whatever the
// cause — a failed mirror, a refused promotion, a suspect, a failed probe:
// the session is closed, removed from the copy list, counted in w.dropped
// and cluster.replica.mirror_drops, and logged with why. Callers hold the
// write side of c.mu, or run in the fan-out under it on w's own share.
func (c *Coordinator) drop(w *worker, i int, why error) {
	r := w.copies[i]
	r.t.Close()
	w.copies = slices.Delete(w.copies, i, i+1)
	w.dropped++
	c.om.mirrorDrops.Inc()
	c.cfg.Logf("cluster: fragment %d: replica on endpoint %d dropped: %v", w.id, r.endpoint, why)
}

// enlistWatches registers every standing watch on a session about to
// serve as primary. The initial answer sets it computes are discarded:
// the session's graph is at the fragment's current sync point, so they
// equal the answers already accumulated from previously reported
// deltas.
func (c *Coordinator) enlistWatches(r *replica) error {
	for _, name := range sortedKeys(c.watches) {
		if _, err := r.t.Do(&server.Request{Cmd: "watch", Watch: name, Pattern: c.watches[name]}); err != nil {
			return err
		}
	}
	return nil
}

// reship rebuilds w's fragment on a fresh pool session from state.
// Induced preserves the order of w.ids.toGlobal, so the new session's local
// id space is identical to the lost one's.
func (c *Coordinator) reship(w *worker, state graph.View) (*replica, error) {
	req, err := w.shipRequest(state)
	if err != nil {
		return nil, err
	}
	return c.newCopy(w, req, w.ids.owned)
}

// shipRequest serializes w's fragment at the given authoritative-graph
// sync point into a fragment command, in the binary graph format: a
// fifth of the text format's bytes and a tenth of its parse time, paid
// once per copy shipped.
func (w *worker) shipRequest(state graph.View) (*server.Request, error) {
	sub, _ := graph.InducedOf(state, w.ids.toGlobal)
	var buf bytes.Buffer
	if err := sub.WriteBinary(&buf); err != nil {
		return nil, fmt.Errorf("serialize fragment %d: %w", w.id, err)
	}
	return &server.Request{Cmd: "fragment", Format: "binary", Data: base64.StdEncoding.EncodeToString(buf.Bytes()), Owned: w.ids.ownedLocal()}, nil
}

// newCopy obtains a fresh session from the pool — off the endpoints
// already holding a copy of this fragment when possible — and ships the
// fragment to it.
func (c *Coordinator) newCopy(w *worker, ship *server.Request, weight int) (*replica, error) {
	if c.cfg.Pool == nil {
		return nil, errors.New("no warm replica left and no worker pool configured")
	}
	t, ep, err := c.cfg.Pool.Get(weight, w.occupiedEndpoints())
	if err != nil {
		return nil, fmt.Errorf("worker pool: %w", err)
	}
	if _, err := t.Do(ship); err != nil {
		t.Close()
		return nil, fmt.Errorf("shipping fragment: %w", err)
	}
	return &replica{t: t, endpoint: ep}, nil
}

// occupiedEndpoints lists the pool endpoints already hosting a copy of
// the fragment, so placement avoids co-locating copies.
func (w *worker) occupiedEndpoints() map[int]bool {
	avoid := make(map[int]bool, len(w.copies))
	for _, r := range w.copies {
		if r.endpoint >= 0 {
			avoid[r.endpoint] = true
		}
	}
	return avoid
}

// mirror forwards a state-changing request the primary has applied to
// every warm replica, concurrently (each): replicas only ever wait on the
// primary, not on each other, so k-way replication adds one replica
// round trip of latency instead of k-1. A replica that fails to apply
// the request is no longer a faithful mirror and is dropped (Repair
// recruits a replacement); the primary's result stands either way.
func (c *Coordinator) mirror(w *worker, req *server.Request) {
	replicas := w.copies[1:]
	// client.Do stamps the request's ID in place, so every send after the
	// first is of its own shallow copy, taken before any send starts (the
	// slices inside are read-only and safely shared).
	cps := make([]server.Request, max(len(replicas)-1, 0))
	for i := range cps {
		cps[i] = *req
	}
	errs := make([]error, len(replicas))
	each(len(replicas), func(i int) {
		r := req
		if i > 0 {
			r = &cps[i-1]
		}
		_, errs[i] = replicas[i].t.Do(r)
	})
	// From the back, so a drop does not move a replica still to be seen.
	for i := len(errs) - 1; i >= 0; i-- {
		if errs[i] != nil {
			c.drop(w, i+1, fmt.Errorf("mirroring %s: %w", req.Cmd, errs[i]))
		}
	}
}

// ProbeResult reports one fragment's health: nil errors mean the
// session answered the ping and still holds the expected fragment
// state.
type ProbeResult struct {
	Fragment int
	Primary  error
	Replicas []error // one entry per warm replica, promotion order
}

// Probe pings every fragment copy over the wire protocol's ping path
// and verifies the session still holds the expected fragment (node and
// owned counts match the coordinator's bookkeeping, catching a worker
// that restarted blank as well as one that died). Probing is read-only:
// it performs no failover — internal/ha's Monitor applies its failure
// policy to the results and calls FailOver and Repair.
func (c *Coordinator) Probe() ([]ProbeResult, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.refuseLocked(); err != nil {
		return nil, err
	}
	return c.probeLocked(), nil
}

// probeLocked probes every copy of every fragment, fragments concurrently.
// Callers hold c.mu.
func (c *Coordinator) probeLocked() []ProbeResult {
	results := make([]ProbeResult, len(c.workers))
	c.fanOut(func(w *worker) error {
		errs := make([]error, len(w.copies))
		for i, r := range w.copies {
			errs[i] = w.probe(r)
		}
		results[w.id] = ProbeResult{Fragment: w.id, Primary: errs[0], Replicas: errs[1:]}
		return nil
	})
	return results
}

// probe checks one fragment copy: reachable, holding a fragment, and at
// the expected node/owned counts.
func (w *worker) probe(r *replica) error {
	resp, err := r.t.Do(&server.Request{Cmd: "ping"})
	if err != nil {
		return &WorkerError{Worker: w.id, Endpoint: r.endpoint, Op: "probe", Err: err}
	}
	if !resp.Fragment {
		return &WorkerError{Worker: w.id, Endpoint: r.endpoint, Op: "probe",
			Err: errors.New("session no longer holds a fragment")}
	}
	if resp.Nodes != len(w.ids.toGlobal) || resp.Owned != w.ids.owned {
		return &WorkerError{Worker: w.id, Endpoint: r.endpoint, Op: "probe",
			Err: fmt.Errorf("state mismatch: session has %d nodes / %d owned, expected %d / %d",
				resp.Nodes, resp.Owned, len(w.ids.toGlobal), w.ids.owned)}
	}
	return nil
}

// FailOver force-replaces a fragment's primary — promotion of a warm
// replica, or a re-ship from the authoritative graph — without waiting
// for an operation to trip over it. The supervision loop calls it when
// probes exceed its failure threshold.
func (c *Coordinator) FailOver(fragment int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.refuseLocked(); err != nil {
		return err
	}
	if fragment < 0 || fragment >= len(c.workers) {
		return fmt.Errorf("cluster: no fragment %d", fragment)
	}
	w := c.workers[fragment]
	if err := c.failover(w, c.g); err != nil {
		return &WorkerError{Worker: fragment, Endpoint: w.copies[0].endpoint, Op: "failover", Err: err}
	}
	return nil
}

// RepairReport summarizes one Repair pass.
type RepairReport struct {
	// Dropped counts replicas discarded because a routed read marked
	// them suspect or they failed their probe.
	Dropped int
	// Added counts fresh replicas shipped to restore Config.Replicas.
	Added int
}

// Repair restores the replication factor: dead warm replicas are
// dropped and fresh ones are shipped from the authoritative graph until
// every fragment has Replicas-1 mirrors again (or the pool runs out, in
// which case the shortfall is reported as an error alongside the partial
// report).
func (c *Coordinator) Repair() (RepairReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var rep RepairReport
	if err := c.refuseLocked(); err != nil {
		return rep, err
	}
	// Copies a routed read marked suspect are dropped up front: even
	// when a probe would pass (a transient transport error), the read
	// router skips suspects forever, so replacing them restores read
	// capacity.
	rep.Dropped = c.pruneSuspectsLocked()
	var firstErr error
	for _, w := range c.workers {
		for i := len(w.copies) - 1; i > 0; i-- {
			if err := w.probe(w.copies[i]); err != nil {
				c.drop(w, i, err)
				rep.Dropped++
			}
		}
		for len(w.copies) < c.cfg.Replicas {
			r, err := c.reship(w, c.g)
			if err != nil {
				if firstErr == nil {
					firstErr = &WorkerError{Worker: w.id, Op: "replicate", Err: err}
				}
				break
			}
			w.copies = append(w.copies, r)
			rep.Added++
		}
	}
	return rep, firstErr
}

// FragmentHealth is one fragment's liveness report, shaped for the
// debug listener's /healthz document (JSON tags are the wire contract).
type FragmentHealth struct {
	Fragment      int    `json:"fragment"`
	Endpoint      int    `json:"endpoint"`
	Materialized  int    `json:"materialized"`
	Owned         int    `json:"owned"`
	PrimaryAlive  bool   `json:"primaryAlive"`
	PrimaryError  string `json:"primaryError,omitempty"`
	Replicas      int    `json:"replicas"`      // warm replicas held
	ReplicasAlive int    `json:"replicasAlive"` // of those, passing their probe
	Dropped       int    `json:"dropped"`       // replicas discarded over the lifetime
}

// Health probes every fragment copy and combines the results with the
// coordinator's topology bookkeeping: one report per fragment with the
// primary's liveness, the warm-replica counts, and the owned/materialized
// sizes. Unlike Probe it stays usable as a debug endpoint on a fail-stopped
// coordinator — the error is returned alongside the last-known topology so
// /healthz can show what the cluster looked like when it stopped.
func (c *Coordinator) Health() ([]FragmentHealth, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]FragmentHealth, len(c.workers))
	refused := c.refuseLocked()
	var probes []ProbeResult
	if refused == nil {
		probes = c.probeLocked()
	}
	for i, w := range c.workers {
		out[i] = FragmentHealth{
			Fragment:     i,
			Endpoint:     w.copies[0].endpoint,
			Materialized: len(w.ids.toGlobal),
			Owned:        w.ids.owned,
			Replicas:     len(w.copies) - 1,
			Dropped:      w.dropped,
		}
		if probes == nil {
			continue
		}
		if err := probes[i].Primary; err != nil {
			out[i].PrimaryError = err.Error()
		} else {
			out[i].PrimaryAlive = true
		}
		for _, err := range probes[i].Replicas {
			if err == nil {
				out[i].ReplicasAlive++
			}
		}
	}
	return out, refused
}

// Close releases every worker session the coordinator holds — primaries
// and warm replicas — and makes later requests fail with a clean
// "closed" error. Safe to call more than once.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var first error
	for _, w := range c.workers {
		for _, r := range w.copies {
			if err := r.t.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// closeAcquired releases every session the coordinator took from the pool
// — warm replicas, and any primary a failover put in place of ts[i] — so
// a failed New or Recover leaks none while the caller keeps ts.
func (c *Coordinator) closeAcquired(ts []Transport) {
	for i, w := range c.workers {
		for _, r := range w.copies {
			if r.t != ts[i] {
				r.t.Close()
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
