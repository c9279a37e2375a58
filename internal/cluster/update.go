package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/server"
)

// UpdateResult reports one cluster-wide update batch.
type UpdateResult struct {
	// Nodes and Edges are the global graph's counts after the batch.
	Nodes, Edges int
	// Deltas are the merged per-watch answer changes, in global node ids:
	// one entry per registered watch, in name order, whenever any worker
	// was contacted, and none when no worker was. Added/Removed come from
	// the workers' replies, which name only the watches whose answers
	// changed there. Affected is the same for every entry: the candidates
	// the contacted workers re-verified, each its owned share of the
	// affected set plus the nodes the batch assigned it — so it tracks
	// AffectedSize.
	Deltas []server.WatchDelta
	// Contacted lists the workers (ascending id) that received traffic:
	// exactly those whose fragment mirrors changed, whose owned candidates
	// need re-verification, or that were assigned a node the batch
	// created. The others were not spoken to — the paper's "coordinator Sc
	// assigns the changes to each fragment" routing (§5.2).
	Contacted []int
	// AffectedSize is the size of the re-verification set the coordinator
	// shipped: the union, over the distinct standing patterns, of the
	// focus candidates each pattern's reach plan says the batch can have
	// flipped — the "work proportional to the change" observable: for a
	// small batch on a large graph it should be far below |V|.
	AffectedSize int
	// Version is the coordinator batch counter after this batch. A
	// caller that fences its later reads with MatchOptions.MinVersion =
	// Version can never read a fragment copy that missed this batch —
	// the read-your-writes token of the replica-read router.
	Version uint64
}

// workerPlan is the update traffic computed for one worker, coalesced
// into what becomes a single wire request: the local mutation batch
// keeping its fragment mirror equal to the induced subgraph of the new
// global graph, the globals it newly materializes (local ids follow its
// current id space, in order), the new nodes it will own (as post-batch
// local ids), and the owned candidates the coordinator determined need
// re-verification (pre-batch local ids).
type workerPlan struct {
	batch    []server.UpdateSpec
	newMat   []graph.NodeID
	assign   []graph.NodeID // global ids, for owned-set bookkeeping
	assignL  []int64        // the same nodes as post-batch local ids
	affected []int64        // owned ∩ global affected set, local ids; none without a batch
}

// empty reports whether the plan carries no traffic at all.
func (p *workerPlan) empty() bool {
	return len(p.batch) == 0 && len(p.assignL) == 0
}

// Update applies a global mutation batch: the coordinator applies it to
// its authoritative graph, journals it (when configured) before any
// fan-out, computes the affected regions (the ball around the batch's
// insertions for materialization upkeep, the standing patterns'
// reach-plan candidates for re-verification), and
// routes one combined wire batch to only the workers whose fragments
// intersect that region — local mutations, newly assigned owned nodes,
// and the affected set restricted to the worker's owned candidates all
// travel in a single request, so routing a batch costs one round trip
// per contacted worker. Workers re-verify exactly the carried affected
// set instead of re-expanding the local batch (which materialization
// traffic would inflate far beyond the globally affected region).
// ClusterUpdate of the ISSUE's API naming.
func (c *Coordinator) Update(specs []server.UpdateSpec) (*UpdateResult, error) {
	return c.update(specs, nil)
}

// update runs one global batch. A non-nil prof switches the contacted
// workers to the profile command, so their replies carry per-stage update
// documents for their fragments, and fills the merged cluster-level
// profile around them: the coordinator's own stages — apply, journal,
// affected-region, fan-out, merge.
//
// The fan-out is pipelined: per-worker planning, serialization and I/O
// run concurrently across workers (each plan touches only its own
// worker's state), and replica mirroring fans out concurrently once the
// primary acks. Per fragment the batch still reaches the primary first
// and the warm replicas only after the primary applied it, so a primary
// that dies mid-batch leaves every replica at the pre-batch sync point:
// failover promotes one (or re-ships from the authoritative graph) and
// replays the batch exactly once. Only when no session survives
// failover does the coordinator mark itself failed and refuse further
// requests rather than serve possibly inconsistent answers.
func (c *Coordinator) update(specs []server.UpdateSpec, prof *UpdateProfile) (res *UpdateResult, err error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: update: empty batch")
	}
	start := time.Now()
	tr := c.cfg.Tracer.Start("update")
	defer func() { tr.Finish(err) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.refuseLocked(); err != nil {
		return nil, err
	}
	// Replicas a routed read found dead are dropped now, before the
	// mirror fan-out pays round trips to them.
	c.pruneSuspectsLocked()
	tapply := time.Now()
	ups, err := server.ToUpdates(specs)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// The batch applies to the authoritative graph in place; oldG is the
	// pre-batch view the versioned core hands back — the "deletions are
	// measured in the old graph" side of the affected-set computation and
	// the sync-point state a mid-batch failover re-ships from.
	oldG, touched, err := c.vg.Apply(ups)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	newG := c.vg.Graph()
	tr.Span(-1, "apply", tapply)
	if prof != nil {
		prof.Op, prof.ApplyMS = "update", server.MsSince(tapply)
	}
	// The batch is accepted: journal it before any worker sees it, so a
	// coordinator crash during fan-out cannot lose an applied batch.
	// A journal append failure rejects the batch with the cluster still
	// consistent (no fragment has been touched yet — the in-place apply
	// is rolled back).
	if c.cfg.Journal != nil {
		tj := time.Now()
		if err := c.cfg.Journal.AppendBatch(specs); err != nil {
			if rerr := c.vg.Rollback(oldG); rerr != nil {
				// The authoritative graph is ahead of both journal and
				// fragments and cannot be walked back: fail-stop.
				c.failed = fmt.Errorf("cluster: journal: %v (rollback failed: %v)", err, rerr)
				return nil, c.failed
			}
			return nil, fmt.Errorf("cluster: journal: %w", err)
		}
		if prof != nil {
			prof.JournalMS = server.MsSince(tj)
		}
	}
	taff := time.Now()
	// Two affected regions: answer re-verification needs the focus
	// candidates the standing patterns' merged reach plan walks to from the
	// changed edges (each distinct rule walked once, whatever the number of
	// patterns sharing it),
	// while fragment materialization upkeep is bounded by the (D-1)-ball
	// around inserted-edge endpoints and batch-created nodes — a node can
	// only move into an owned node's D-hop ball along a path through an
	// inserted edge, and deletions never extend a fragment. Neither
	// needs the D-hop ball of the whole touched set, which for a 1-edge
	// batch can cover most of a dense graph.
	reverify := c.reach.Affected(oldG, newG, touched)
	var insEnds []graph.NodeID
	for _, u := range ups {
		if u.Op == graph.MutAddEdge {
			insEnds = append(insEnds, u.From, u.To)
		}
	}
	for v := oldG.NumNodes(); v < newG.NumNodes(); v++ {
		insEnds = append(insEnds, graph.NodeID(v))
	}
	var matCand []graph.NodeID
	if len(insEnds) > 0 {
		matCand = c.ball.Ball(newG, insEnds, c.cfg.D-1)
	}
	// The edges the batch can have changed, whichever fragments hold them:
	// its net edge mutations plus the edges a removed node lost.
	var changed []edgeKey
	for _, u := range ups {
		switch u.Op {
		case graph.MutAddEdge, graph.MutRemoveEdge:
			if l := newG.LookupLabel(u.Label); l != graph.NoLabel {
				changed = append(changed, edgeKey{u.From, u.To, l})
			}
		case graph.MutRemoveNode:
			v := u.From
			if int(v) >= oldG.NumNodes() {
				continue
			}
			for _, e := range oldG.Out(v) {
				changed = append(changed, edgeKey{v, e.To, e.Label})
			}
			for _, e := range oldG.In(v) {
				changed = append(changed, edgeKey{e.To, v, e.Label})
			}
		}
	}
	tr.Annotatef("batch=%d touched=%d affected=%d matcand=%d", len(specs), len(touched), len(reverify), len(matCand))
	if prof != nil {
		prof.AffectedMS = server.MsSince(taff)
		prof.BatchSize = len(specs)
		prof.Touched = len(touched)
		prof.Nodes = newG.NumNodes()
		prof.AffectedSize = len(reverify)
		if prof.Nodes > 0 {
			prof.WorkRatio = float64(prof.AffectedSize) / float64(prof.Nodes)
		}
	}
	if c.om != nil {
		c.om.updateBatch.Observe(float64(len(specs)))
		c.om.updateAffected.Observe(float64(len(reverify)))
		c.om.affectedRatio.Set(int64(len(reverify)) * 1_000_000 / int64(newG.NumNodes()))
	}

	// Assign each node the batch created to the worker owning the fewest:
	// assignTo[i] is the worker of node oldG.NumNodes()+i.
	assignTo := make([]int, newG.NumNodes()-oldG.NumNodes())
	ownedCount := make([]int, len(c.workers))
	for i, w := range c.workers {
		ownedCount[i] = w.ids.owned
	}
	for v := range assignTo {
		best := 0
		for i := 1; i < len(ownedCount); i++ {
			if ownedCount[i] < ownedCount[best] {
				best = i
			}
		}
		assignTo[v] = best
		ownedCount[best]++
	}

	// Plan and execute concurrently across workers: planning reads only
	// shared immutable inputs plus the worker's own state, so computing it
	// inside the fan-out overlaps the planning of one worker with the
	// serialization and I/O of another. Per worker: the reply's deltas and
	// how many candidates it re-verified.
	contacted := make([]bool, len(c.workers))
	updDeltas := make([][]server.WatchDelta, len(c.workers))
	reverified := make([]int, len(c.workers))
	cmd := "update"
	var workerProfs []*WorkerUpdateProfile
	if prof != nil {
		cmd = "profile"
		workerProfs = make([]*WorkerUpdateProfile, len(c.workers))
	}
	tfan := time.Now()
	err = c.fanOut(func(w *worker) error {
		tplan := time.Now()
		p := c.planFor(w, oldG, newG, changed, touched, matCand, reverify, assignTo)
		if p == nil || p.empty() {
			if c.om != nil {
				c.om.workersSkipped.Inc()
			}
			return nil
		}
		tr.Span(w.id, "plan", tplan)
		contacted[w.id] = true
		if c.om != nil {
			c.om.workersRouted.Inc()
		}
		var wp *WorkerUpdateProfile
		if prof != nil {
			// Each goroutine writes only its own slot; no lock needed.
			wp = &WorkerUpdateProfile{
				Worker:    w.id,
				PlanMS:    server.MsSince(tplan),
				Mutations: len(p.batch),
				Affected:  len(p.affected),
				Assigned:  len(p.assignL),
			}
			workerProfs[w.id] = wp
		}
		req := &server.Request{
			Cmd:      cmd,
			Updates:  p.batch,
			Owned:    p.assignL,
			Scoped:   true,
			Affected: p.affected,
		}
		// The id mapping is extended only after the primary holds the
		// batch: failover before that point re-ships the pre-batch
		// fragment (from the oldG view over the unextended id space) and
		// replays the whole combined request — updates and assignment
		// apply exactly once. Response deltas use post-batch local ids;
		// they are translated after the fan-out, when the extension below
		// is committed.
		trtt := time.Now()
		resp, err := c.sendPrimary(w, "update", req, oldG)
		if err != nil {
			return err
		}
		tr.Span(w.id, "rtt", trtt)
		tr.Annotatef("w%d:muts=%d affected=%d", w.id, len(p.batch), len(p.affected))
		if c.om != nil {
			c.om.workerUpdateMS[w.id].ObserveSince(trtt)
		}
		if wp != nil {
			wp.RTTMS = server.MsSince(trtt)
			wp.Profile = resp.Profile
		}
		// The primary re-verified what it was shipped: every id in
		// p.affected is owned there, and every assigned node is new to it.
		updDeltas[w.id], reverified[w.id] = resp.Deltas, len(p.affected)+len(p.assignL)
		for _, gv := range p.newMat {
			w.ids.add(gv)
		}
		for _, gv := range p.assign {
			w.ids.setOwned(gv)
		}
		if len(w.replicas) > 0 {
			tmir := time.Now()
			c.mirror(w, req)
			tr.Span(w.id, "mirror", tmir)
			if wp != nil {
				wp.MirrorMS = server.MsSince(tmir)
			}
		}
		return nil
	})
	if err != nil {
		c.failed = err
		return nil, err
	}
	if prof != nil {
		prof.FanoutMS = server.MsSince(tfan)
		for _, wp := range workerProfs {
			if wp != nil {
				prof.Workers = append(prof.Workers, *wp)
			}
		}
	}
	out := &UpdateResult{Nodes: newG.NumNodes(), Edges: newG.NumEdges(), AffectedSize: len(reverify)}
	// The batch is applied everywhere it needed to go: primaries saw it
	// first, mirror() dropped every replica that failed it, and
	// uncontacted fragments were untouched — so stamping every surviving
	// copy with the new version is exact.
	out.Version = c.bumpVersionLocked()
	for i, hit := range contacted {
		if hit {
			out.Contacted = append(out.Contacted, i)
		}
	}
	tm := time.Now()
	if len(out.Contacted) > 0 {
		if out.Deltas, err = c.mergeDeltas(updDeltas, reverified); err != nil {
			c.failed = err
			return nil, err
		}
	}
	tr.Span(-1, "merge", tm)
	if prof != nil {
		prof.MergeMS = server.MsSince(tm)
		prof.TotalMS = server.MsSince(start)
	}
	if c.om != nil {
		c.om.updateCount.Inc()
		c.om.updateFanout.Observe(float64(len(out.Contacted)))
		c.om.updateMS.ObserveSince(start)
	}
	return out, nil
}

// planFor computes one worker's share of a global batch, or nil when the
// batch cannot affect the worker: no touched node is materialized there,
// no owned candidate needs re-verification or materialization upkeep,
// and no new node is being assigned to it. matCand is the (D-1)-ball
// around inserted-edge endpoints and batch-created nodes (it bounds
// materialization maintenance); reverify is the union of the standing
// patterns' reach-plan candidates (it scopes answer re-verification);
// both ascend. changed lists the edges the batch can have changed
// anywhere; assignTo[i] is the worker the batch's i-th created node goes
// to. planFor only reads its inputs and the worker's id space: the caller
// extends the latter once the primary holds the batch.
func (c *Coordinator) planFor(w *worker, oldG *graph.OldView, newG *graph.Graph, changed []edgeKey, touched, matCand, reverify []graph.NodeID, assignTo []int) *workerPlan {
	ids := &w.ids
	oldN := oldG.NumNodes()
	// Owned candidates whose d-hop neighborhood must stay materialized,
	// followed by the nodes the batch assigns here (all ≥ oldN, so the
	// list ascends): the roots of the expansion below.
	var roots []graph.NodeID
	for _, v := range matCand {
		if ids.owns(v) {
			roots = append(roots, v)
		}
	}
	var assign []graph.NodeID
	for i, wid := range assignTo {
		if wid == w.id {
			assign = append(assign, graph.NodeID(oldN+i))
		}
	}
	roots = append(roots, assign...)
	// The re-verification scope: the worker's owned share of the
	// shipped affected set, in its (pre-batch, since owned nodes are
	// always already materialized) local ids. Newly assigned nodes are
	// excluded — the assignment itself evaluates them.
	var affectedL []int64
	for _, gv := range reverify {
		if ids.owns(gv) {
			affectedL = append(affectedL, int64(ids.toLocal[gv]))
		}
	}
	touchedMat := slices.ContainsFunc(touched, ids.has)
	if !touchedMat && len(roots) == 0 && len(affectedL) == 0 {
		return nil
	}

	// Expansion: every affected owned candidate and every newly assigned
	// node must keep its full new-graph d-hop neighborhood materialized
	// (Lemma 9(1) needs the full neighborhood for fragment-local
	// exactness). The fragment invariant — a root's old-graph
	// neighborhood is already materialized — bounds what can be missing:
	// a node newly within d hops of a root reached it along a path
	// through an inserted edge or a batch-created node, so both it and
	// the root lie within d-1 hops of an insertion endpoint (matCand).
	// The candidate pool is therefore the non-materialized slice of
	// matCand, and since undirected d-hop membership is symmetric, the
	// work is one neighborhood expansion per element of the *smaller*
	// side: from each pool node asking "is a root within d hops?" when
	// the pool is small (the steady state, where it is empty — the old
	// always-expand-every-root code was the planner's measured hot
	// spot), or from each root asking "which pool nodes are within d
	// hops?" when a multi-region batch makes the pool large while this
	// worker has few roots. Pool and roots ascend, so membership in
	// either is a binary search and newMat comes out ascending.
	var newMat []graph.NodeID
	if len(roots) > 0 {
		var pool []graph.NodeID
		for _, u := range matCand {
			if !ids.has(u) {
				pool = append(pool, u)
			}
		}
		if len(pool) <= len(roots) {
			for _, u := range pool {
				if slices.ContainsFunc(newG.Neighborhood(u, c.cfg.D), func(r graph.NodeID) bool {
					_, isRoot := slices.BinarySearch(roots, r)
					return isRoot
				}) {
					newMat = append(newMat, u)
				}
			}
		} else {
			needed := make([]bool, len(pool))
			for _, root := range roots {
				for _, u := range newG.Neighborhood(root, c.cfg.D) {
					if i, inPool := slices.BinarySearch(pool, u); inPool {
						needed[i] = true
					}
				}
			}
			for i, u := range pool {
				if needed[i] {
					newMat = append(newMat, u)
				}
			}
		}
	}

	// Local ids after the batch: a newly materialized node follows the
	// current id space in newMat order.
	localOf := func(gv graph.NodeID) graph.NodeID {
		if lv, ok := ids.local(gv); ok {
			return lv
		}
		i, _ := slices.BinarySearch(newMat, gv)
		return graph.NodeID(len(ids.toGlobal) + i)
	}
	matNew := func(v graph.NodeID) bool {
		if ids.has(v) {
			return true
		}
		_, ok := slices.BinarySearch(newMat, v)
		return ok
	}

	batch := make([]server.UpdateSpec, 0, len(newMat))
	for _, gv := range newMat {
		batch = append(batch, server.UpdateSpec{Op: "addNode", Label: newG.NodeLabelName(gv)})
	}

	// Edge diff between the old and new induced subgraphs. The global
	// edge delta is within changed, and the mirror additionally gains
	// every edge incident to a newly materialized node — so the candidate
	// set comes straight from the batch and newMat adjacency instead of
	// rescanning every touched node's (possibly hub-sized) neighborhood.
	keys := slices.Clone(changed)
	for _, v := range newMat {
		for _, e := range newG.Out(v) {
			if matNew(e.To) {
				keys = append(keys, edgeKey{v, e.To, e.Label})
			}
		}
		for _, e := range newG.In(v) {
			if matNew(e.To) {
				keys = append(keys, edgeKey{e.To, v, e.Label})
			}
		}
	}
	slices.SortFunc(keys, func(a, b edgeKey) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to), cmp.Compare(a.label, b.label))
	})
	for _, k := range slices.Compact(keys) {
		oldHas := ids.has(k.from) && ids.has(k.to) && oldG.HasEdge(k.from, k.to, k.label)
		newHas := matNew(k.from) && matNew(k.to) && newG.HasEdge(k.from, k.to, k.label)
		if oldHas == newHas {
			continue
		}
		op := "addEdge"
		if oldHas {
			op = "removeEdge"
		}
		batch = append(batch, server.UpdateSpec{
			Op:    op,
			From:  int64(localOf(k.from)),
			To:    int64(localOf(k.to)),
			Label: newG.LabelName(k.label),
		})
	}

	assignL := make([]int64, len(assign))
	for i, gv := range assign {
		assignL[i] = int64(localOf(gv))
	}
	if len(batch) == 0 {
		// The fragment is unchanged, so are its owned answers (Lemma 9(1)):
		// a worker re-verifies only alongside a batch, and the plan ships
		// only what it will re-verify.
		affectedL = nil
	}
	return &workerPlan{batch: batch, newMat: newMat, assign: assign, assignL: assignL, affected: affectedL}
}

// edgeKey names one labelled edge of the authoritative graph; the
// pre-batch view and the post-batch graph share one label id space.
type edgeKey struct {
	from, to graph.NodeID
	label    graph.LabelID
}

// mergeDeltas folds the contacted workers' replies (indexed by worker id)
// into one entry per registered watch, in name order. A scoped reply names
// only the watches whose answers changed there, in local ids, possibly
// twice — a re-verification delta and an assignment delta; the added and
// removed sets are disjoint unions (ownership partitions the nodes). Every
// watch re-verified the same candidates, so Affected is one sum over the
// workers' reverified counts.
func (c *Coordinator) mergeDeltas(byWorker [][]server.WatchDelta, reverified []int) ([]server.WatchDelta, error) {
	affected := 0
	for _, n := range reverified {
		affected += n
	}
	runs := make(map[string]*[2][][]graph.NodeID) // watch → added runs, removed runs
	for wid, deltas := range byWorker {
		for _, d := range deltas {
			added, err := c.workers[wid].globalRun(d.Added)
			if err != nil {
				return nil, err
			}
			removed, err := c.workers[wid].globalRun(d.Removed)
			if err != nil {
				return nil, err
			}
			r := runs[d.Watch]
			if r == nil {
				r = new([2][][]graph.NodeID)
				runs[d.Watch] = r
			}
			r[0], r[1] = append(r[0], added), append(r[1], removed)
		}
	}
	names := sortedKeys(c.watches)
	out := make([]server.WatchDelta, len(names))
	for i, name := range names {
		out[i] = server.WatchDelta{Watch: name, Affected: affected}
		if r := runs[name]; r != nil {
			out[i].Added, out[i].Removed = server.IDs(mergeRuns(r[0])), server.IDs(mergeRuns(r[1]))
		}
	}
	return out, nil
}
