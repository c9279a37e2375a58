package ha

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tenant"
)

const watchesName = "watches.json"

// JournalOptions configures a Journal.
type JournalOptions struct {
	// Fsync makes every journaled batch durable before the coordinator
	// fans it out. Off by default (matching store.Options).
	Fsync bool
	// CompactBytes bounds the on-disk mutation journal: once an appended
	// batch pushes it past this many bytes, the journal is folded into a
	// fresh snapshot before the append returns, so a long-lived
	// coordinator's directory stays proportional to the graph instead of
	// to its update history (and the next recovery replays a short
	// suffix, not the lifetime's mutations). 0 disables the policy — the
	// journal then compacts only at construction and torn-tail repair,
	// the pre-threshold behavior.
	CompactBytes int64
	// Logf receives diagnostics (compaction passes and their trigger
	// sizes); nil means log.Printf.
	Logf func(format string, args ...interface{})
	// Metrics, when set, exposes journal activity in the registry:
	// ha.journal.batches / .mutations / .compactions / .fsyncs counters
	// and the ha.journal.bytes gauge (on-disk mutation-journal size).
	Metrics *obs.Registry
}

func (o *JournalOptions) fill() {
	if o.Logf == nil {
		o.Logf = log.Printf
	}
}

// journalMetrics holds the journal's pre-resolved instruments; with no
// registry every field is nil and the observations are no-ops.
type journalMetrics struct {
	batches     *obs.Counter
	mutations   *obs.Counter
	compactions *obs.Counter
	fsyncs      *obs.Counter
	bytes       *obs.Gauge
}

func newJournalMetrics(reg *obs.Registry) journalMetrics {
	return journalMetrics{
		batches:     reg.Counter("ha.journal.batches"),
		mutations:   reg.Counter("ha.journal.mutations"),
		compactions: reg.Counter("ha.journal.compactions"),
		fsyncs:      reg.Counter("ha.journal.fsyncs"),
		bytes:       reg.Gauge("ha.journal.bytes"),
	}
}

// Journal is a coordinator's durable state in one directory: the
// authoritative graph as internal/store's snapshot + append-only
// mutation journal, plus the standing-watch set as a small manifest
// (watches.json, replaced atomically). It implements
// cluster.UpdateJournal, so a coordinator built with Config.Journal set
// records every accepted update batch before fan-out; OpenJournal on
// the same directory after a restart reads the graph and watches back for
// cluster.Recover to rebuild the coordinator from.
type Journal struct {
	dir  string
	opts JournalOptions
	om   journalMetrics

	mu      sync.Mutex
	st      *store.Store
	watches map[string]string
}

// OpenJournal opens (or initializes) the journal directory, replaying
// any existing snapshot+journal into the recovered graph.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	opts.fill()
	st, err := store.Open(dir, store.Options{Fsync: opts.Fsync})
	if err != nil {
		return nil, fmt.Errorf("ha: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, om: newJournalMetrics(opts.Metrics), st: st, watches: make(map[string]string)}
	b, err := os.ReadFile(filepath.Join(dir, watchesName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh directory, or one written before any watch existed.
	case err != nil:
		st.Close()
		return nil, fmt.Errorf("ha: %w", err)
	default:
		if err := j.readWatches(b); err != nil {
			st.Close()
			return nil, fmt.Errorf("ha: watches manifest: %w", err)
		}
	}
	return j, nil
}

// watchManifest is the on-disk shape of watches.json since the tenant
// layer: version-tagged, with watches grouped per tenant session so the
// manifest survives renames of the encoding. Pre-tenant directories hold
// a bare flat map (no "v" key); readWatches accepts both.
type watchManifest struct {
	V       int                          `json:"v"`
	Tenants map[string]map[string]string `json:"tenants"`
}

// readWatches parses either manifest generation into the flat
// global-name → pattern map the coordinator registers from.
func (j *Journal) readWatches(b []byte) error {
	var m watchManifest
	if err := json.Unmarshal(b, &m); err == nil && m.V >= 2 {
		for tn, watches := range m.Tenants {
			for w, pattern := range watches {
				if tn == "" {
					// Legacy un-namespaced watches carried into a v2
					// manifest keep their bare global names.
					j.watches[w] = pattern
				} else {
					j.watches[tenant.GlobalName(tn, w)] = pattern
				}
			}
		}
		return nil
	}
	// Legacy flat map: names are coordinator-global already (and decode
	// as the "" tenant's watches through tenant.SplitName).
	return json.Unmarshal(b, &j.watches)
}

// HasState reports whether the directory held a recoverable cluster
// state (a non-empty graph or standing watches).
func (j *Journal) HasState() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.NumNodes() > 0 || len(j.watches) > 0
}

// Graph returns the recovered (or current) durable graph.
func (j *Journal) Graph() *graph.Graph {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Graph()
}

// Watches returns a copy of the recovered (or current) standing-watch
// set, global watch name → pattern DSL.
func (j *Journal) Watches() map[string]string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]string, len(j.watches))
	for k, v := range j.watches {
		out[k] = v
	}
	return out
}

// Recovery reports what replaying the on-disk journal found at open.
func (j *Journal) Recovery() store.RecoveryInfo {
	return j.st.Recovery()
}

// SetGraph replaces the durable graph wholesale (one snapshot write, no
// per-edge journaling) and clears the watch set: a coordinator built
// over a new graph starts with no standing watches. Implements
// cluster.UpdateJournal.
func (j *Journal) SetGraph(g *graph.Graph) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.st.ImportGraph(g); err != nil {
		return err
	}
	j.watches = make(map[string]string)
	return j.writeWatchesLocked()
}

// AppendBatch journals one accepted update batch, compacting first when
// the journal has outgrown Options.CompactBytes. Implements
// cluster.UpdateJournal.
func (j *Journal) AppendBatch(specs []server.UpdateSpec) error {
	muts, err := server.ToUpdates(specs)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.opts.CompactBytes > 0 {
		size, err := j.st.JournalBytes()
		if err != nil {
			return err
		}
		if size >= j.opts.CompactBytes {
			// Compact before the append rather than after: the snapshot
			// write is the expensive step, and folding it in up front
			// means a crash between append and compaction never loses
			// the batch — it is either in the fresh journal suffix or
			// not yet accepted.
			if err := j.st.Compact(); err != nil {
				return err
			}
			j.om.compactions.Inc()
			j.opts.Logf("ha: journal: compacted at %d bytes (threshold %d)", size, j.opts.CompactBytes)
		}
	}
	if _, err = j.st.Apply(muts...); err != nil {
		return err
	}
	j.om.batches.Inc()
	j.om.mutations.Add(int64(len(muts)))
	if j.opts.Fsync {
		// The store syncs each applied batch when Fsync is on; counting
		// here (rather than inside the store) keeps the dependency
		// one-way.
		j.om.fsyncs.Inc()
	}
	if size, serr := j.st.JournalBytes(); serr == nil {
		j.om.bytes.Set(size)
	}
	return nil
}

// WatchRegistered records a standing watch. Implements
// cluster.UpdateJournal.
func (j *Journal) WatchRegistered(name, pattern string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.watches[name] = pattern
	return j.writeWatchesLocked()
}

// WatchRemoved forgets a standing watch. Implements
// cluster.UpdateJournal.
func (j *Journal) WatchRemoved(name string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	delete(j.watches, name)
	return j.writeWatchesLocked()
}

// Compact folds the mutation journal into a fresh snapshot.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.st.Compact(); err != nil {
		return err
	}
	j.om.compactions.Inc()
	if size, err := j.st.JournalBytes(); err == nil {
		j.om.bytes.Set(size)
	}
	return nil
}

// JournalBytes reports the on-disk size of the mutation journal — what
// the CompactBytes policy bounds.
func (j *Journal) JournalBytes() (int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.JournalBytes()
}

// Close flushes and closes the underlying store.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Close()
}

// writeWatchesLocked replaces watches.json atomically (tmp + rename);
// under Options.Fsync the temp file is synced before the rename, as the
// store's snapshot write does, so an acknowledged watch change is as
// durable as an acknowledged batch. The on-disk shape is the v2
// tenant-grouped manifest; the in-memory map stays flat (global names).
func (j *Journal) writeWatchesLocked() error {
	m := watchManifest{V: 2, Tenants: make(map[string]map[string]string)}
	for name, pattern := range j.watches {
		tn, w := tenant.SplitName(name)
		if m.Tenants[tn] == nil {
			m.Tenants[tn] = make(map[string]string)
		}
		m.Tenants[tn][w] = pattern
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	path := filepath.Join(j.dir, watchesName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ha: %w", err)
	}
	if _, err = f.Write(b); err == nil && j.opts.Fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ha: %w", err)
	}
	return os.Rename(tmp, path)
}
