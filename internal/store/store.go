// Package store persists a labeled directed graph that its caller holds in
// memory, as a binary snapshot plus an append-only mutation journal, in the
// style of a write-ahead-logged storage engine:
//
//   - snapshot-<seq>.qg  — the graph state with all mutations ≤ seq folded in
//   - journal.log        — CRC-protected mutation records appended after it
//   - CURRENT            — a tiny JSON manifest naming the live snapshot,
//     replaced atomically by rename
//
// Open loads the snapshot named by CURRENT, replays the journal suffix
// (records with seq greater than the snapshot's) and hands the graph to
// the caller. From then on the caller applies every batch to that graph
// and Appends it here, and Snapshot folds the journal into a snapshot of
// the graph. The store keeps no graph of its own, only the node count the
// journaled records reached: it checks each batch against it
// (graph.CheckBatch) and each graph it is asked to fold.
//
// Recovery tolerates a torn journal tail — an interrupted append rolls
// back — and an interrupted compaction: the manifest flip is atomic, and
// replay skips records already folded into the snapshot by sequence number.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// ErrUnapplied is Snapshot's refusal of a graph that cannot hold the
// records appended since the last snapshot: folding it would drop them.
var ErrUnapplied = errors.New("store: graph does not hold the journaled records")

// Options configures a store.
type Options struct {
	// Fsync makes every appended batch durable before returning. Off by
	// default: tests and bulk loads prefer speed, servers turn it on.
	Fsync bool
}

// Store is the durable form of a graph its caller holds: a snapshot and
// the journal of the batches applied to the graph since. All methods are
// safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	nodes    int            // node count after every journaled record
	nextSeq  uint64         // seq of the next mutation to journal
	snapSeq  uint64         // seq folded into the live snapshot
	jw       *journalWriter // open journal appender
	recovery RecoveryInfo   // what Open found
	closed   bool
}

type manifest struct {
	Snapshot string `json:"snapshot"`
	Seq      uint64 `json:"seq"`
}

// Open opens (or initializes) the store in dir, creating the directory
// when missing, and returns the graph it holds: the snapshot with the
// journal replayed on top, or an empty graph for a fresh store. The
// caller owns the graph; Append and Snapshot persist what it does to it.
func Open(dir string, opts Options) (*Store, *graph.Graph, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, nextSeq: 1}

	man, err := readManifest(filepath.Join(dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh store: empty state, new journal.
		g := graph.New(0)
		g.Finalize()
		if err := s.writeSnapshotLocked(g, 0); err != nil {
			return nil, nil, err
		}
		jw, err := createJournal(filepath.Join(dir, journalName), opts.Fsync)
		if err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		s.jw = jw
		return s, g, nil
	case err != nil:
		return nil, nil, err
	}

	g, err := loadSnapshot(filepath.Join(dir, man.Snapshot))
	if err != nil {
		return nil, nil, err
	}
	s.snapSeq = man.Seq
	s.nextSeq = man.Seq + 1

	jpath := filepath.Join(dir, journalName)
	jf, err := os.Open(jpath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		jw, err := createJournal(jpath, opts.Fsync)
		if err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		s.jw, s.nodes = jw, g.NumNodes()
		return s, g, nil
	case err != nil:
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	// The journal suffix replays into the decoded graph in place, one
	// record at a time, through the same checks a live batch passes.
	vg := graph.NewVersioned(g)
	info, rerr := replayJournal(jf, man.Seq, func(seq uint64, m graph.Mutation) error {
		if seq != s.nextSeq {
			return fmt.Errorf("%w: sequence gap: got %d, want %d", ErrCorruptJournal, seq, s.nextSeq)
		}
		if _, err := vg.Apply([]graph.Mutation{m}); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.nextSeq = seq + 1
		return nil
	})
	jf.Close()
	if rerr != nil {
		return nil, nil, rerr
	}
	s.recovery = info
	s.nodes = g.NumNodes()
	if info.TornTail {
		// The valid prefix was applied in memory only; fold it into a
		// fresh snapshot and truncate the journal, so the repair is
		// durable and future appends don't land after garbage.
		if err := s.snapshotLocked(g); err != nil {
			return nil, nil, err
		}
	} else {
		jw, err := openJournalForAppend(jpath, opts.Fsync)
		if err != nil {
			return nil, nil, fmt.Errorf("store: %w", err)
		}
		s.jw = jw
	}
	return s, g, nil
}

// Recovery reports what Open found when replaying the journal.
func (s *Store) Recovery() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// JournalBytes reports the on-disk size of the mutation journal: the
// bytes Snapshot would fold into the next snapshot. Compaction policies
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

// Append journals a batch the caller has applied to its graph. A batch
// graph.CheckBatch refuses at the node count the journal has reached is
// refused before a byte is written, so the journal replays through the
// same check.
func (s *Store) Append(muts ...graph.Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	nodes, err := graph.CheckBatch(muts, s.nodes)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.jw.append(s.nextSeq, muts); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	s.nextSeq += uint64(len(muts))
	s.nodes = nodes
	return nil
}

// Snapshot makes g the durable state as of the last appended record: it
// writes g as a snapshot, commits it by replacing CURRENT, and empties the
// journal. While records appended since the last snapshot are in the
// journal, g must be the graph they were applied to, and one whose node
// count is not the count they reached is refused with ErrUnapplied. With
// no such record, g replaces the state: that is how a new graph starts.
// Crash-safe: the manifest rename is the commit point.
func (s *Store) Snapshot(g *graph.Graph) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.nextSeq-1 > s.snapSeq && g.NumNodes() != s.nodes {
		return fmt.Errorf("%w: it has %d nodes, the journal's records reach %d", ErrUnapplied, g.NumNodes(), s.nodes)
	}
	return s.snapshotLocked(g)
}

func (s *Store) snapshotLocked(g *graph.Graph) error {
	if err := s.writeSnapshotLocked(g, s.nextSeq-1); err != nil {
		return err
	}
	return s.rewriteJournalLocked()
}

// writeSnapshotLocked writes g as snapshot-<seq>.qg, flips the manifest to
// it, and removes superseded snapshots.
func (s *Store) writeSnapshotLocked(g *graph.Graph, seq uint64) error {
	name := fmt.Sprintf("snapshot-%d.qg", seq)
	if err := WriteFile(filepath.Join(s.dir, name), true, g.WriteBinary); err != nil {
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	b, err := json.Marshal(manifest{Snapshot: name, Seq: seq})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := WriteFile(filepath.Join(s.dir, manifestName), true, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}); err != nil {
		return fmt.Errorf("store: manifest write: %w", err)
	}
	s.snapSeq, s.nodes = seq, g.NumNodes()
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
// are in the snapshot), atomically by rename. The old appender is kept
// until the new journal is in place: appending past a committed snapshot
// is safe, because replay skips the records the snapshot holds.
func (s *Store) rewriteJournalLocked() error {
	path := filepath.Join(s.dir, journalName)
	jw, err := createJournal(path+".tmp", s.opts.Fsync)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// The appender keeps its descriptor across the rename: it writes to
	// the file now named journal.log.
	if err := os.Rename(path+".tmp", path); err != nil {
		jw.Close()
		return fmt.Errorf("store: %w", err)
	}
	if s.jw != nil {
		s.jw.Close()
	}
	s.jw = jw
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
	if s.jw == nil {
		return nil
	}
	var err error
	if s.opts.Fsync {
		err = s.jw.f.Sync()
	}
	if cerr := s.jw.Close(); err == nil {
		err = cerr
	}
	return err
}

func loadSnapshot(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: manifest names missing snapshot: %w", err)
	}
	defer f.Close()
	g, err := graph.ReadBinary(f, math.MaxInt)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	return g, nil
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

// createFile creates the temporary file WriteFile writes; tests replace
// it to inject faults.
var createFile = func(name string) (storeFile, error) { return os.Create(name) }

// WriteFile replaces the file at path with what write writes, by way of
// path+".tmp": it writes the temporary file, syncs it when sync is set,
// closes it and renames it over path. With sync set a crash leaves the old
// file or the whole new one, never a torn or empty one. On failure the
// temporary file is removed and path is untouched.
func WriteFile(path string, sync bool, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := createFile(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
