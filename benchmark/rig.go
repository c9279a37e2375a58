package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/server"
	"repro/internal/tenant"
)

func quiet(string, ...interface{}) {}

// writerSession is the named tenant that owns the standing watches and
// sends every update.
const writerSession = "writer"

// rig is the whole service in one process, built the way cmd/qgpcluster
// builds it: TCP front end (shared multi-tenant session) → coordinator →
// clusterWorkers embedded workers from an ha spawn pool, every fragment
// held clusterReplicas times, updates journaled to a directory with
// fsync off and the default 16 MiB compaction threshold.
type rig struct {
	in      *inputs
	fe      *cluster.Frontend
	served  chan struct{} // closed when fe.Serve returns
	journal *ha.Journal
	dir     string
	addr    string

	mu    sync.Mutex
	coord *cluster.Coordinator // the shared session's coordinator (OnSession)

	conns []*client.Client // conns[0] is the writer
	speed *speedometer     // the run's yardstick; paces the open-loop writer

	// The writer's client-side view: batches sent and acknowledged (the
	// version window a concurrent read may have been served at) and the
	// standing answers with every returned delta folded in.
	sent, acked atomic.Uint64
	answers     []map[int64]bool // answers[i] belongs to watchName(i)
	watchIdx    map[string]int
}

// newRig builds the service and loads the inputs into it over the wire:
// load (DPar, fragment shipping, replica placement), then the watches.
// rec non-nil installs the tracing wrappers at the three seams.
func newRig(in *inputs, w workload, conns int, tmp string, rec *recorder) (r *rig, err error) {
	dir, err := os.MkdirTemp(tmp, "journal-")
	if err != nil {
		return nil, err
	}
	r = &rig{in: in, dir: dir, served: make(chan struct{}), watchIdx: make(map[string]int)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.journal, err = ha.OpenJournal(dir, ha.JournalOptions{CompactBytes: 16 << 20, Logf: quiet})
	if err != nil {
		return nil, err
	}
	pool := ha.NewSpawnPool(clusterWorkers, server.Config{IdleTimeout: 24 * time.Hour, MaxWatches: -1, Logf: quiet})
	ccfg := cluster.Config{D: clusterD, Replicas: clusterReplicas, Pool: pool, Logf: quiet}
	newWorkers := func() ([]cluster.Transport, error) { return pool.Primaries(clusterWorkers) }
	var uj cluster.UpdateJournal = r.journal
	if rec != nil {
		ccfg.Pool = &tracedPool{inner: pool, rec: rec}
		uj = &tracedJournal{inner: r.journal, rec: rec}
		newWorkers = func() ([]cluster.Transport, error) {
			ts, err := pool.Primaries(clusterWorkers)
			if err != nil {
				return nil, err
			}
			for i, t := range ts {
				if ts[i], err = wrapTransport(t, rec, "transport"); err != nil {
					cluster.CloseAll(ts)
					return nil, err
				}
			}
			return ts, nil
		}
	}
	r.fe = cluster.NewFrontend(cluster.FrontendConfig{
		Cluster:    ccfg,
		NewWorkers: newWorkers,
		Durable:    &cluster.DurableState{Journal: uj},
		// Tenant limits stay unlimited: tenant.throttled_ratio must read 0.
		Tenancy: tenant.Config{MaxWatches: -1, IdleTimeout: -1},
		OnSession: func(c *cluster.Coordinator) func() {
			r.mu.Lock()
			r.coord = c
			r.mu.Unlock()
			return func() {}
		},
		IdleTimeout: 24 * time.Hour,
		Logf:        quiet,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.addr = ln.Addr().String()
	go func() {
		defer close(r.served)
		r.fe.Serve(ln) // returns net.ErrClosed after Shutdown
	}()

	for i := 0; i < conns; i++ {
		c, err := client.Dial(r.addr)
		if err != nil {
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	wr := r.conns[0]
	if _, err := wr.Session(writerSession); err != nil {
		return nil, err
	}
	if _, _, err := wr.LoadText(in.text); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	for i := 0; i < w.watches; i++ {
		resp, err := wr.Watch(watchName(i), watchDSL[i%len(watchDSL)].dsl)
		if err != nil {
			return nil, fmt.Errorf("watch %s: %w", watchName(i), err)
		}
		set := make(map[int64]bool, len(resp.Matches))
		for _, v := range resp.Matches {
			set[v] = true
		}
		r.watchIdx[watchName(i)] = i
		r.answers = append(r.answers, set)
	}
	return r, nil
}

func (r *rig) coordinator() *cluster.Coordinator {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.coord
}

// fold applies one update's returned deltas to the client-side answers.
func (r *rig) fold(deltas []server.WatchDelta) error {
	for _, d := range deltas {
		i, ok := r.watchIdx[d.Watch]
		if !ok || d.Resync {
			return fmt.Errorf("delta for watch %q (resync=%v) cannot be folded", d.Watch, d.Resync)
		}
		set := r.answers[i]
		for _, v := range d.Removed {
			delete(set, v)
		}
		for _, v := range d.Added {
			set[v] = true
		}
	}
	return nil
}

// close stops everything newRig started and waits for it.
func (r *rig) close() {
	for _, c := range r.conns {
		c.Close()
	}
	if r.fe != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		r.fe.Shutdown(ctx)
		cancel()
		if r.addr != "" {
			<-r.served
		}
	}
	if r.journal != nil {
		r.journal.Close()
	}
	os.RemoveAll(r.dir)
}
