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
	// Logf receives diagnostics (compaction passes, failed ones included,
	// and their trigger sizes); nil means log.Printf.
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
// coordinator's graph as internal/store's snapshot + append-only mutation
// journal, plus the standing-watch set as a small manifest (watches.json,
// replaced atomically). It implements cluster.UpdateJournal, so a
// coordinator built with Config.Journal set records every accepted update
// batch before fan-out; OpenJournal on the same directory after a restart
// reads the graph and watches back for cluster.Recover to rebuild the
// coordinator from.
//
// There is one graph in memory, not two: the journal keeps the graph it was
// given and never applies a batch to it. After OpenJournal that is the
// recovered graph, which Recover adopts as the coordinator's own; after
// SetGraph it is the coordinator's live graph.
type Journal struct {
	dir  string
	opts JournalOptions
	om   journalMetrics

	mu      sync.Mutex
	st      *store.Store
	g       *graph.Graph // the graph the store persists; every appended batch is applied to it
	watches map[string]string
	muts    []graph.Mutation // AppendBatch's, reused from batch to batch
}

// OpenJournal opens (or initializes) the journal directory, replaying
// any existing snapshot+journal into the recovered graph.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	opts.fill()
	st, g, err := store.Open(dir, store.Options{Fsync: opts.Fsync})
	if err != nil {
		return nil, fmt.Errorf("ha: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, om: newJournalMetrics(opts.Metrics), st: st, g: g, watches: make(map[string]string)}
	b, err := os.ReadFile(filepath.Join(dir, watchesName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh directory, or one written before any watch existed.
	case err != nil:
		st.Close()
		return nil, fmt.Errorf("ha: %w", err)
	default:
		if j.watches, err = readWatches(b); err != nil {
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
func readWatches(b []byte) (map[string]string, error) {
	out := make(map[string]string)
	var m watchManifest
	if err := json.Unmarshal(b, &m); err == nil && m.V >= 2 {
		for tn, watches := range m.Tenants {
			for w, pattern := range watches {
				if tn == "" {
					// Legacy un-namespaced watches carried into a v2
					// manifest keep their bare global names.
					out[w] = pattern
				} else {
					out[tenant.GlobalName(tn, w)] = pattern
				}
			}
		}
		return out, nil
	}
	// Legacy flat map: names are coordinator-global already (and decode
	// as the "" tenant's watches through tenant.SplitName).
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// encodeWatches writes the flat watch set as the v2 tenant-grouped
// manifest readWatches reads back. The "" tenant holds bare global names,
// so a name that merely starts with the separator is kept whole.
func encodeWatches(watches map[string]string) ([]byte, error) {
	m := watchManifest{V: 2, Tenants: make(map[string]map[string]string)}
	for name, pattern := range watches {
		tn, w := tenant.SplitName(name)
		if tn == "" {
			w = name
		}
		if m.Tenants[tn] == nil {
			m.Tenants[tn] = make(map[string]string)
		}
		m.Tenants[tn][w] = pattern
	}
	return json.Marshal(m)
}

// HasState reports whether the directory held a recoverable cluster
// state (a non-empty graph or standing watches). Ask before a coordinator
// is built over the journal: it reads the graph.
func (j *Journal) HasState() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.g.NumNodes() > 0 || len(j.watches) > 0
}

// Graph returns the graph the journal persists. After OpenJournal it is
// the recovered graph, for cluster.Recover to adopt; after SetGraph it is
// the coordinator's live graph, which only the coordinator may read while
// it serves.
func (j *Journal) Graph() *graph.Graph {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.g
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

// SetGraph makes g the durable graph (one snapshot write, no per-edge
// journaling) and clears the watch set: a coordinator built over a new
// graph starts with no standing watches. The journal keeps g, without a
// copy, and snapshots it from then on. Implements cluster.UpdateJournal.
func (j *Journal) SetGraph(g *graph.Graph) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.st.Snapshot(g)
	if errors.Is(err, store.ErrUnapplied) {
		// The graph g replaces took batches that are still only in the
		// journal: fold that graph first, which ends its history, then
		// start g's.
		if err = j.st.Snapshot(j.g); err == nil {
			err = j.st.Snapshot(g)
		}
	}
	if err != nil {
		return err
	}
	j.g = g
	j.watches = make(map[string]string)
	return j.writeWatchesLocked()
}

// AppendBatch journals one batch the coordinator has applied to its graph.
// Once the journal has outgrown Options.CompactBytes it then snapshots that
// graph, which already holds the batch. Implements cluster.UpdateJournal.
func (j *Journal) AppendBatch(specs []server.UpdateSpec) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	muts, err := server.AppendUpdates(j.muts[:0], specs)
	if err != nil {
		return err
	}
	j.muts = muts
	if err := j.st.Append(muts...); err != nil {
		return err
	}
	j.om.batches.Inc()
	j.om.mutations.Add(int64(len(muts)))
	if j.opts.Fsync {
		// The store syncs each appended batch when Fsync is on; counting
		// here (rather than inside the store) keeps the dependency
		// one-way.
		j.om.fsyncs.Inc()
	}
	// The store is open: Append just succeeded, and Close waits for j.mu.
	size, _ := j.st.JournalBytes()
	if j.opts.CompactBytes > 0 && size >= j.opts.CompactBytes {
		// The batch is durable from here on, so a failed compaction is
		// logged, not returned: an error would make the coordinator roll
		// back a journaled batch. The next batch tries again.
		if err := j.st.Snapshot(j.g); err != nil {
			j.opts.Logf("ha: journal: compaction at %d bytes failed: %v", size, err)
		} else {
			j.om.compactions.Inc()
			j.opts.Logf("ha: journal: compacted at %d bytes (threshold %d)", size, j.opts.CompactBytes)
			size, _ = j.st.JournalBytes()
		}
	}
	j.om.bytes.Set(size)
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
	b, err := encodeWatches(j.watches)
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
