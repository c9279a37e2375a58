package cluster

// Replica-read routing: Match, Explain and Stats do not change fragment
// state, so they need not pin the primary the way updates do. (Partition
// needs no routing at all — it reports coordinator bookkeeping without
// worker round trips.) Each fragment's request is routed to the live copy
// — primary or warm replica — with the fewest of the coordinator's reads
// in flight, which lets k copies serve k overlapping read streams (one
// wire session per copy, each serialized by its transport) and scales
// read throughput with the replication factor.
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
// Any copy may serve any read, the caller's own last write included:
// every copy is written under the write lock before a batch is accepted,
// and a copy that fails is dropped, so under the read lock every live
// copy is current.

import (
	"encoding/json"
	"errors"
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
// coordinator-measured round trip that fetched it, sent at t0. The round
// trip minus the worker-reported compute time (resp.ElapsedMS) is
// serialization + wire + queueing, which tells a slow worker from a slow
// link.
type workerReply struct {
	resp *server.Response
	t0   time.Time
	rtt  time.Duration
}

// routedRead is the one read-only fan-out behind Match, Explain and
// Stats. It sends a copy of req to every fragment under the read side of
// c.mu, each routed to its least-loaded live copy, so concurrent reads
// overlap across the k copies of every fragment. Only
// when a fragment has no live copy left does it count a fallback, take
// the write lock, drop the suspects and rerun the whole fan-out through
// sendPrimary, which fails over (promotion or re-ship) as needed; reads
// do not change fragment state, so the rerun is always safe. merge runs
// on the replies (indexed by worker id) under whichever lock the
// successful fan-out held, so it may read coordinator bookkeeping. tr gets
// the successful fan-out's rtt spans, each with the record its worker
// returned when req carries a trace id.
func (c *Coordinator) routedRead(tr *obs.Trace, req server.Request, merge func([]workerReply) error) error {
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
				resp, err = c.sendRead(w, req.Cmd, &r)
			} else {
				resp, err = c.sendPrimary(w, req.Cmd, &r, c.g)
			}
			if err != nil {
				return err
			}
			// Each goroutine writes only its own slot; no lock needed.
			replies[w.id] = workerReply{resp: resp, t0: t0, rtt: time.Since(t0)}
			return nil
		})
		if err != nil {
			return err
		}
		for id, r := range replies {
			var child json.RawMessage // an explain's Profile is its plan
			if req.Trace != 0 {
				child = r.resp.Profile
			}
			tr.Nest(id, "rtt", r.t0, r.rtt, child)
		}
		return merge(replies)
	}
	c.mu.RLock()
	err := run(true)
	c.mu.RUnlock()
	if errors.Is(err, errReadFailover) {
		c.om.readFallbacks.Inc()
		c.mu.Lock()
		c.pruneSuspectsLocked()
		err = run(false)
		c.mu.Unlock()
	}
	return err
}

// sendRead routes one read-only request to the least-loaded live copy
// of w's fragment. A transport failure marks the copy suspect and the
// next candidate is tried; a protocol error (the worker answered) is
// returned as is. Callers hold c.mu's read side.
func (c *Coordinator) sendRead(w *worker, op string, req *server.Request) (*server.Response, error) {
	for {
		r := w.leastLoadedCopy()
		if r == nil {
			return nil, errReadFailover
		}
		r.inflight.Add(1)
		rt, tracked := r.t.(ReadTracker)
		if tracked {
			rt.ReadStart()
		}
		resp, err := r.t.Do(req)
		if tracked {
			rt.ReadEnd()
		}
		r.inflight.Add(-1)
		if err == nil {
			r.reads.Add(1)
			if r == w.copies[0] {
				c.om.readPrimary.Inc()
			} else {
				c.om.readReplica.Inc()
			}
			return resp, nil
		}
		var se *client.ServerError
		if errors.As(err, &se) {
			return nil, &WorkerError{Worker: w.id, Endpoint: r.endpoint, Op: op, Err: err}
		}
		r.suspect.Store(true)
		c.om.readSuspects.Inc()
		c.cfg.Logf("cluster: fragment %d: copy on endpoint %d failed a routed read, marked suspect: %v", w.id, r.endpoint, err)
	}
}

// leastLoadedCopy picks the copy with the fewest routed reads in flight
// that is not suspect, the earliest in the list on a tie. Each copy is
// scored by its own count only, so one fragment's choice does not move
// with other fragments' concurrent reads. Returns nil when every copy is
// suspect.
func (w *worker) leastLoadedCopy() *replica {
	var best *replica
	var bestScore int64
	for _, r := range w.copies {
		if r.suspect.Load() {
			continue
		}
		if s := r.inflight.Load(); best == nil || s < bestScore {
			best, bestScore = r, s
		}
	}
	return best
}

// pruneSuspectsLocked drops every replica a routed read marked suspect,
// so mirrors stop paying round trips to dead sessions, and returns how
// many it dropped. A suspect primary is left in place: the next
// sendPrimary contact trips over it and runs real failover (promotion
// or re-ship), which pruning cannot do for lack of a safe sync point
// here. Callers hold c.mu's write side.
func (c *Coordinator) pruneSuspectsLocked() int {
	n := 0
	for _, w := range c.workers {
		for i := len(w.copies) - 1; i > 0; i-- {
			if w.copies[i].suspect.Load() {
				c.drop(w, i, errors.New("a routed read marked it suspect"))
				n++
			}
		}
	}
	return n
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
		out[i] = make([]int64, len(w.copies))
		for j, r := range w.copies {
			out[i][j] = r.reads.Load()
		}
	}
	return out
}
