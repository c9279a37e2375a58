package cluster

// Replica-read routing: Match, Explain, ProfileMatch and Stats do not
// change fragment state, so they need not pin the primary the way
// updates do. (Partition needs no routing at all — it reports
// coordinator bookkeeping without worker round trips.)
// Each fragment's request is routed to the least-loaded live copy —
// primary or warm replica — which lets k copies serve k overlapping read
// streams (one wire session per copy, each serialized by its transport)
// and scales read throughput with the replication factor.
//
// The routing runs under the read side of c.mu, concurrent with other
// reads, so it must not mutate coordinator bookkeeping:
//
//   - A copy whose transport fails is marked suspect (an atomic flag)
//     and skipped; the next write-locked operation (update, repair)
//     prunes it. No promotion or re-shipping happens here.
//   - When a fragment has no eligible copy left, the read fails with
//     errReadFailover and routedRead retries the whole fan-out under
//     the write lock, where sendPrimary can promote a warm replica or
//     re-ship the fragment.
//
// Read-your-writes: every copy carries the coordinator batch version it
// is synced to, and a read fenced with MatchOptions.MinVersion only
// considers copies at or past that version. The primary always
// qualifies — it applies every batch before the coordinator accepts it —
// so a fenced read degrades to the primary rather than failing. Mirrors
// are synchronous today (surviving replicas are always current at
// rest), which makes the fence cheap insurance: it is what keeps a
// tenant's own write visible to its next read even if mirroring ever
// becomes asynchronous or a copy joins mid-history.

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// errReadFailover reports that a fragment had no live eligible copy on
// the lock-free read path; routedRead retries under the write lock,
// where failover can run.
var errReadFailover = errors.New("cluster: read routing: no live fragment copy")

// workerReply is one fragment's answer to a routed read and the
// coordinator-measured round trip that fetched it. The round trip minus
// the worker-reported compute time (resp.ElapsedMS) is serialization +
// wire + queueing, which tells a slow worker from a slow link.
type workerReply struct {
	resp  *server.Response
	rttMS float64
}

// routedRead is the one read-only fan-out behind Match, Explain and
// Stats. It sends a copy of req to every fragment under the read side of
// c.mu, each routed to its least-loaded live copy synced to minV, so
// concurrent reads overlap across the k copies of every fragment. Only
// when a fragment has no live copy left does it count a fallback, take
// the write lock, drop the suspects and rerun the whole fan-out through
// sendPrimary, which fails over (promotion or re-ship) as needed; reads
// do not change fragment state, so the rerun is always safe. merge runs
// on the replies (indexed by worker id) under whichever lock the
// successful fan-out held, so it may read coordinator bookkeeping.
func (c *Coordinator) routedRead(tr *obs.Trace, req server.Request, minV uint64, merge func([]workerReply) error) error {
	run := func(readPath bool) error {
		if err := c.refuseLocked(); err != nil {
			return err
		}
		replies := make([]workerReply, len(c.workers))
		err := c.fanOut(func(w *worker) error {
			t0 := time.Now()
			// Each worker sends its own copy: client.Do stamps the
			// request's ID in place.
			r := req
			var resp *server.Response
			var err error
			if readPath {
				resp, err = c.sendRead(w, req.Cmd, &r, minV)
			} else {
				resp, err = c.sendPrimary(w, req.Cmd, &r, c.g)
			}
			if err != nil {
				return err
			}
			tr.Span(w.id, "rtt", t0)
			// Each goroutine writes only its own slot; no lock needed.
			replies[w.id] = workerReply{resp: resp, rttMS: server.MsSince(t0)}
			return nil
		})
		if err != nil {
			return err
		}
		return merge(replies)
	}
	c.mu.RLock()
	err := run(true)
	c.mu.RUnlock()
	if errors.Is(err, errReadFailover) {
		c.om.readFellBack()
		c.mu.Lock()
		c.pruneSuspectsLocked()
		err = run(false)
		c.mu.Unlock()
	}
	return err
}

// sendRead routes one read-only request to the least-loaded live copy
// of w's fragment whose synced version is at least minV. A transport
// failure marks the copy suspect and the next candidate is tried; a
// protocol error (the worker answered) is returned as is. Callers hold
// c.mu's read side.
func (c *Coordinator) sendRead(w *worker, op string, req *server.Request, minV uint64) (*server.Response, error) {
	for {
		r := w.leastLoadedCopy(minV)
		if r == nil {
			return nil, errReadFailover
		}
		atomic.AddInt64(&r.inflight, 1)
		rt, tracked := r.t.(ReadTracker)
		if tracked {
			rt.ReadStart()
		}
		resp, err := r.t.Do(req)
		if tracked {
			rt.ReadEnd()
		}
		atomic.AddInt64(&r.inflight, -1)
		if err == nil {
			atomic.AddInt64(&r.reads, 1)
			c.om.readRouted(r == w.primary)
			return resp, nil
		}
		var se *client.ServerError
		if errors.As(err, &se) {
			return nil, &WorkerError{Worker: w.id, Endpoint: r.endpoint, Op: op, Err: err}
		}
		r.suspect.Store(true)
		c.om.readSuspected()
		c.cfg.Logf("cluster: fragment %d: copy on endpoint %d failed a routed read, marked suspect: %v", w.id, r.endpoint, err)
	}
}

// leastLoadedCopy picks the eligible copy with the lowest read load:
// not suspect, and synced to minV or later (the primary always
// qualifies). Returns nil when no copy is eligible.
func (w *worker) leastLoadedCopy(minV uint64) *replica {
	var best *replica
	var bestScore int64
	consider := func(r *replica, isPrimary bool) {
		if r.suspect.Load() {
			return
		}
		if !isPrimary && r.version < minV {
			return
		}
		s := r.readScore()
		if best == nil || s < bestScore {
			best, bestScore = r, s
		}
	}
	consider(w.primary, true)
	for _, r := range w.replicas {
		consider(r, false)
	}
	return best
}

// readScore is the copy's current read load: the endpoint-wide
// in-flight routed-read count when the transport is pool-tracked (reads
// from other fragments and sessions on the endpoint count too), the
// copy's own in-flight count otherwise.
func (r *replica) readScore() int64 {
	if rt, ok := r.t.(ReadTracker); ok {
		return int64(rt.ReadLoad())
	}
	return atomic.LoadInt64(&r.inflight)
}

// pruneSuspectsLocked drops every replica a routed read marked suspect,
// so mirrors stop paying round trips to dead sessions. A suspect
// primary is left in place: the next sendPrimary contact trips over it
// and runs real failover (promotion or re-ship), which pruning cannot
// do for lack of a safe sync point here. Callers hold c.mu's write
// side.
func (c *Coordinator) pruneSuspectsLocked() {
	for _, w := range c.workers {
		kept := w.replicas[:0]
		for _, r := range w.replicas {
			if r.suspect.Load() {
				r.t.Close()
				w.dropped++
				c.om.mirrorDropped()
				c.cfg.Logf("cluster: fragment %d: dropping suspect replica on endpoint %d", w.id, r.endpoint)
				continue
			}
			kept = append(kept, r)
		}
		w.replicas = kept
	}
}

// bumpVersionLocked advances the coordinator's batch counter after a
// successful update and stamps every surviving copy as synced to it:
// contacted primaries applied the batch, surviving replicas mirrored it
// (mirror drops the ones that failed), and uncontacted fragments were
// not changed by it, so all their copies are trivially current. Callers
// hold c.mu's write side.
func (c *Coordinator) bumpVersionLocked() uint64 {
	c.version++
	for _, w := range c.workers {
		w.primary.version = c.version
		for _, r := range w.replicas {
			r.version = c.version
		}
	}
	return c.version
}

// ReadDistribution reports, per fragment, how many routed reads each
// copy has served (index 0 is the primary, then the warm replicas in
// promotion order) — the observable behind "a Match burst does not pile
// onto one copy".
func (c *Coordinator) ReadDistribution() [][]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([][]int64, len(c.workers))
	for i, w := range c.workers {
		counts := make([]int64, 0, len(w.replicas)+1)
		counts = append(counts, atomic.LoadInt64(&w.primary.reads))
		for _, r := range w.replicas {
			counts = append(counts, atomic.LoadInt64(&r.reads))
		}
		out[i] = counts
	}
	return out
}
