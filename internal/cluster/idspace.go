package cluster

import (
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// idSpace is the coordinator's book-keeping of one fragment's nodes: which
// global nodes are materialized there and under which local id, and which
// of those the fragment owns. Update planning probes it for every node a
// batch can reach, per worker, per batch, so it is dense tables indexed by
// global id, not hash maps. The tables grow when a node beyond them is
// materialized (a node the batch created, or an older one a fragment
// extends to); an id beyond them is simply absent.
type idSpace struct {
	toLocal  []graph.NodeID // by global id; -1: not materialized
	toGlobal []graph.NodeID // by local id, in materialization order
	own      bitset.Set     // by global id, ⊆ materialized (disjoint across workers)
	owned    int            // |own|
}

// has reports whether global node gv is materialized.
func (s *idSpace) has(gv graph.NodeID) bool {
	return int(gv) < len(s.toLocal) && s.toLocal[gv] >= 0
}

// local returns gv's local id; ok is false when gv is not materialized.
func (s *idSpace) local(gv graph.NodeID) (lv graph.NodeID, ok bool) {
	if !s.has(gv) {
		return 0, false
	}
	return s.toLocal[gv], true
}

// owns reports whether the fragment owns global node gv.
func (s *idSpace) owns(gv graph.NodeID) bool {
	return int(gv) < s.own.Len() && s.own.Contains(int(gv))
}

// add materializes gv (which must not be yet) under the next local id
// and returns that id.
func (s *idSpace) add(gv graph.NodeID) graph.NodeID {
	for int(gv) >= len(s.toLocal) {
		s.toLocal = append(s.toLocal, -1)
	}
	lv := graph.NodeID(len(s.toGlobal))
	s.toLocal[gv] = lv
	s.toGlobal = append(s.toGlobal, gv)
	return lv
}

// setOwned marks the materialized node gv owned.
func (s *idSpace) setOwned(gv graph.NodeID) {
	if s.owns(gv) {
		return
	}
	s.own.Grow(len(s.toLocal))
	s.own.Add(int(gv))
	s.owned++
}

// ownedLocal returns the owned nodes' local ids, ascending.
func (s *idSpace) ownedLocal() []int64 {
	out := make([]int64, 0, s.owned)
	s.own.ForEach(func(gv int) bool {
		out = append(out, int64(s.toLocal[gv]))
		return true
	})
	slices.Sort(out)
	return out
}

// globalRun translates a worker's answer ids, local to its fragment as
// they came off the wire, into an ascending run of global ids. A worker
// answers in ascending local order and local ids follow toGlobal, which
// starts out as the fragment's ascending node list; once an update has
// appended an older node to it (fragment extension, update.go) the
// translation is no longer monotone, and the reply is outside input in any
// case — so order is checked on the way and a run that comes out unsorted
// is sorted, that run only.
func (w *worker) globalRun(locals []int64) ([]graph.NodeID, error) {
	toGlobal := w.ids.toGlobal
	run := make([]graph.NodeID, len(locals))
	ascending := true
	for i, local := range locals {
		if local < 0 || int(local) >= len(toGlobal) {
			return nil, fmt.Errorf("cluster: worker %d returned local node %d outside [0, %d)", w.id, local, len(toGlobal))
		}
		run[i] = toGlobal[local]
		ascending = ascending && (i == 0 || run[i-1] <= run[i])
	}
	if !ascending {
		slices.Sort(run)
	}
	return run, nil
}
