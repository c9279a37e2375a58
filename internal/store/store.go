// Package store persists a labeled directed graph on disk as a binary
// snapshot plus an append-only mutation journal, in the style of a
// write-ahead-logged storage engine:
//
//   - snapshot-<seq>.qg  — the graph state with all mutations ≤ seq folded in
//   - journal.log        — CRC-protected mutation records appended after it
//   - CURRENT            — a tiny JSON manifest naming the live snapshot,
//     replaced atomically by rename
//
// Open loads the snapshot named by CURRENT and replays the journal suffix
// (records with seq greater than the snapshot's). Recovery tolerates a
// torn journal tail — an interrupted append rolls back — and an
// interrupted compaction: the manifest flip is atomic, and replay skips
// records already folded into the snapshot by sequence number.
//
// The store keeps the graph materialized in memory, maintained in
// place by the versioned graph core (one delta apply per batch, cost
// proportional to the batch); Graph() returns a finalized immutable
// snapshot that is replaced (not mutated) on Apply, so concurrent
// readers can keep using a previously returned graph.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/graph"
)

const (
	manifestName = "CURRENT"
	journalName  = "journal.log"
)

// Options configures a store.
type Options struct {
	// Fsync makes every Apply batch durable before returning. Off by
	// default: tests and bulk loads prefer speed, servers turn it on.
	Fsync bool
}

// Store is a disk-backed mutable graph. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	vg       *graph.Versioned // live state, maintained in place per batch
	nextSeq  uint64           // seq of the next mutation to journal
	snapSeq  uint64           // seq folded into the live snapshot
	jw       *journalWriter   // open journal appender
	view     *graph.Graph     // cached immutable snapshot; nil when dirty
	recovery RecoveryInfo     // what Open found
	closed   bool
}

type manifest struct {
	Snapshot string `json:"snapshot"`
	Seq      uint64 `json:"seq"`
}

// Open opens (or initializes) the store in dir. The directory is created
// when missing.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, vg: graph.NewVersioned(graph.New(0))}

	man, err := readManifest(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh store: empty state, new journal.
		if err := s.writeSnapshotLocked(0); err != nil {
			return nil, err
		}
		jw, err := createJournal(filepath.Join(dir, journalName), opts.Fsync)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.jw = jw
		s.nextSeq = 1
		return s, nil
	case err != nil:
		return nil, err
	}

	if err := s.loadSnapshot(filepath.Join(dir, man.Snapshot)); err != nil {
		return nil, err
	}
	s.snapSeq = man.Seq
	s.nextSeq = man.Seq + 1

	jpath := filepath.Join(dir, journalName)
	jf, err := os.Open(jpath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		jw, err := createJournal(jpath, opts.Fsync)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.jw = jw
		return s, nil
	case err != nil:
		return nil, fmt.Errorf("store: %w", err)
	}
	info, rerr := replayJournal(jf, man.Seq, func(seq uint64, m graph.Mutation) error {
		if seq != s.nextSeq {
			return fmt.Errorf("%w: sequence gap: got %d, want %d", ErrCorruptJournal, seq, s.nextSeq)
		}
		if err := s.applyLocked([]graph.Mutation{m}); err != nil {
			return err
		}
		s.nextSeq = seq + 1
		return nil
	})
	jf.Close()
	if rerr != nil {
		return nil, rerr
	}
	s.recovery = info
	if info.TornTail {
		// The valid prefix was applied in memory only; fold it into a
		// fresh snapshot and truncate the journal, so the repair is
		// durable and future appends don't land after garbage.
		if err := s.compactLocked(); err != nil {
			return nil, err
		}
	} else {
		jw, err := openJournalForAppend(jpath, opts.Fsync)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.jw = jw
	}
	return s, nil
}

// Recovery reports what Open found when replaying the journal.
func (s *Store) Recovery() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// NumNodes returns the current node count.
func (s *Store) NumNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vg.Graph().NumNodes()
}

// NumEdges returns the current edge count.
func (s *Store) NumEdges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vg.Graph().NumEdges()
}

// JournalBytes reports the on-disk size of the mutation journal: the
// bytes Compact would fold into the next snapshot. Compaction policies
// (internal/ha) poll it around every batch to keep a long-lived store's
// journal bounded, so it is the appender's own count, not a stat.
func (s *Store) JournalBytes() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("store: closed")
	}
	return s.jw.size, nil
}

// Apply journals and applies a batch of mutations atomically with respect
// to Graph(): readers see either none or all of the batch. It returns the
// id of the first node added by the batch (or -1 if none); AddNode ids
// are assigned densely in batch order.
func (s *Store) Apply(muts ...graph.Mutation) (firstNode graph.NodeID, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return -1, fmt.Errorf("store: closed")
	}
	// The versioned core checks the batch by the same rule; checking here
	// keeps an invalid batch out of the journal before a byte is written.
	before := s.vg.Graph().NumNodes()
	after, err := graph.CheckBatch(muts, before)
	if err != nil {
		return -1, fmt.Errorf("store: %w", err)
	}
	if err := s.jw.append(s.nextSeq, muts); err != nil {
		return -1, fmt.Errorf("store: journal append: %w", err)
	}
	if err := s.applyLocked(muts); err != nil {
		return -1, err // unreachable: the batch passed CheckBatch above
	}
	s.nextSeq += uint64(len(muts))
	if after == before {
		return -1, nil
	}
	return graph.NodeID(before), nil
}

// applyLocked applies a batch to the in-memory state through the
// versioned core, which validates it (Apply's second half, and the
// journal-replay path one record at a time, with per-record sequence
// checking in the caller).
func (s *Store) applyLocked(muts []graph.Mutation) error {
	if _, _, err := s.vg.Apply(muts); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.view = nil
	return nil
}

// Graph returns the current state as a finalized graph. The returned
// graph is immutable: it is a snapshot copy of the live in-place state,
// cached until the next mutation, so later Apply calls never touch it.
func (s *Store) Graph() *graph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graphLocked()
}

func (s *Store) graphLocked() *graph.Graph {
	if s.view == nil {
		s.view = s.vg.Graph().Clone()
	}
	return s.view
}

// ImportGraph replaces the store contents with g and compacts. It is the
// bulk-load path: one snapshot write, no journaling of individual edges.
func (s *Store) ImportGraph(g *graph.Graph) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	// Clone: callers (the HA journal's SetGraph receives the cluster
	// coordinator's live graph) keep mutating g afterwards; the store's
	// state must not alias it.
	s.vg = graph.NewVersioned(g.Clone())
	s.view = nil
	return s.compactLocked()
}

// Compact folds the journal into a fresh snapshot and truncates the
// journal. Crash-safe: the manifest rename is the commit point.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	seq := s.nextSeq - 1
	if err := s.writeSnapshotLocked(seq); err != nil {
		return err
	}
	return s.rewriteJournalLocked()
}

// writeSnapshotLocked writes snapshot-<seq>.qg, flips the manifest to it,
// and removes superseded snapshots.
func (s *Store) writeSnapshotLocked(seq uint64) error {
	name := fmt.Sprintf("snapshot-%d.qg", seq)
	tmp := filepath.Join(s.dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Serialize the live graph directly: no snapshot clone needed while
	// the lock is held.
	if err := s.vg.Graph().WriteBinary(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeManifest(filepath.Join(s.dir, manifestName), manifest{Snapshot: name, Seq: seq}); err != nil {
		return err
	}
	s.snapSeq = seq
	// Best-effort cleanup of superseded snapshots.
	entries, err := os.ReadDir(s.dir)
	if err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "snapshot-") && e.Name() != name && !strings.HasSuffix(e.Name(), ".tmp") {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	return nil
}

// rewriteJournalLocked replaces the journal with an empty one (its records
// are in the snapshot), atomically by rename.
func (s *Store) rewriteJournalLocked() error {
	if s.jw != nil {
		s.jw.Close()
		s.jw = nil
	}
	tmp := filepath.Join(s.dir, journalName+".tmp")
	jw, err := createJournal(tmp, s.opts.Fsync)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := jw.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, journalName)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	jw2, err := openJournalForAppend(filepath.Join(s.dir, journalName), s.opts.Fsync)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.jw = jw2
	return nil
}

// Close flushes and closes the journal. The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.jw != nil {
		if s.opts.Fsync {
			s.jw.f.Sync()
		}
		return s.jw.Close()
	}
	return nil
}

func (s *Store) loadSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: manifest names missing snapshot: %w", err)
	}
	defer f.Close()
	g, err := graph.ReadBinary(f, math.MaxInt)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	// The decoded graph is owned by the store; the journal suffix (if
	// any) replays into it in place.
	s.vg = graph.NewVersioned(g)
	s.view = nil
	return nil
}

func readManifest(path string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("store: manifest: %w", err)
	}
	if m.Snapshot == "" || strings.Contains(m.Snapshot, "/") {
		return m, fmt.Errorf("store: manifest names invalid snapshot %q", m.Snapshot)
	}
	return m, nil
}

func writeManifest(path string, m manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return os.Rename(tmp, path)
}
