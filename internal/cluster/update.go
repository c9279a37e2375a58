package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
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
	// changed there. Affected is AffectedSize on every entry.
	Deltas []server.WatchDelta
	// Contacted lists the workers (ascending id) that received traffic:
	// exactly those whose fragment mirrors changed or that were assigned a
	// node the batch created. The others were not spoken to — the paper's
	// "coordinator Sc assigns the changes to each fragment" routing (§5.2).
	Contacted []int
	// AffectedSize is the re-verification work the batch cost: the sum
	// over the contacted workers of their replies' Total — each the focus
	// candidates its widest watch group re-judged, plus the nodes it was
	// assigned while a watch stands. It is the "work proportional to the
	// change" observable, far below |V| for a small batch on a large
	// graph, and sizes the merged Affected and the tenant's update budget.
	AffectedSize int
	// Version counts the batches the coordinator has accepted, this one
	// included. benchmark/ reads this name; delete after ROADMAP 1(a).
	Version uint64
}

// workerPlan is the update traffic computed for one worker, coalesced
// into what becomes a single wire request: the local mutation batch
// keeping its fragment mirror equal to the induced subgraph of the new
// global graph, the globals it newly materializes (local ids follow its
// current id space, in order) and the new nodes it will own (as post-batch
// local ids). batch and assignL go on the wire and are the batch's own;
// the other slices are the worker's scratch, reused by the next batch.
type workerPlan struct {
	batch   []server.UpdateSpec
	newMat  []graph.NodeID
	assign  []graph.NodeID // global ids, for owned-set bookkeeping
	assignL []int64        // the same nodes as post-batch local ids

	// Planning scratch: the candidate pool, the expansion roots, the pool
	// nodes a root needs, and the mirror's edge keys.
	pool, roots []graph.NodeID
	needed      []bool
	keys        []graph.EdgeEdit
}

// empty reports whether the plan carries no traffic at all.
func (p *workerPlan) empty() bool {
	return len(p.batch) == 0 && len(p.assignL) == 0
}

// updateScratch is Update's working memory, kept from batch to batch under
// the write side of mu, so that a batch allocates only what outlives it:
// the result, the pre-batch view and the requests handed to the transports.
// An entry of workers is read and written only by its worker's fan-out
// goroutine, and by the caller before and after the fan-out.
type updateScratch struct {
	muts     []graph.Mutation
	insEnds  []graph.NodeID
	assignTo []int // worker of the batch's i-th created node
	owned    []int // owned count per worker, while assigning
	names    []string
	runs     [][2][][]graph.NodeID // per watch name: added runs, removed runs
	workers  []workerScratch
}

// workerScratch is one worker's share of a batch.
type workerScratch struct {
	matCand   []graph.NodeID // the ball, or nil: settled
	contacted bool
	deltas    []server.WatchDelta // its reply's, in local ids
	judged    int                 // its reply's Total
	err       error
	plan      workerPlan
}

// reset readies s for a batch over n workers.
func (s *updateScratch) reset(n int) {
	if len(s.workers) != n {
		s.workers = make([]workerScratch, n)
	}
	for i := range s.workers {
		ws := &s.workers[i]
		ws.matCand, ws.contacted, ws.deltas, ws.judged, ws.err = nil, false, nil, 0, nil
	}
}

// Update applies a global mutation batch: the coordinator applies it to
// its authoritative graph, journals it (when configured) before any
// fan-out, computes the ball around the batch's insertions for
// materialization upkeep unless no worker needs it, and routes one
// combined wire batch to only the workers whose fragments it changes —
// local mutations and newly assigned owned nodes travel in a single
// request, so routing a batch costs one round trip per contacted worker.
// Each worker finds the candidates the batch can flip over its own
// fragment and reports how many it re-judged; their sum is
// UpdateResult.AffectedSize. Config.Tracer traces it.
func (c *Coordinator) Update(specs []server.UpdateSpec) (res *UpdateResult, err error) {
	tr := c.cfg.Tracer.Start("update")
	defer func() { tr.Finish(err) }()
	return c.update(specs, tr)
}

// update runs one global batch, recording it in tr (nil: untraced): the
// coordinator's own stages (graph.apply, ha.journal_append, the
// materialization ball with the settled tests, merge), per contacted
// worker its plan, its rtt — holding the worker's own record when tr is
// deep — and ha.mirror, and the batch, edits, nodes and affected counts.
// A span's start is tr.Now(), so an untraced batch reads the clock only
// for its metrics.
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
func (c *Coordinator) update(specs []server.UpdateSpec, tr *obs.Trace) (res *UpdateResult, err error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: update: empty batch")
	}
	start := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	locked := time.Now()
	c.om.updateLockWait.Observe(msOf(locked.Sub(start)))
	if err := c.refuseLocked(); err != nil {
		return nil, err
	}
	// Replicas a routed read found dead are dropped now, before the
	// mirror fan-out pays round trips to them.
	c.pruneSuspectsLocked()
	s := &c.upd
	s.reset(len(c.workers))
	tapply := tr.Now()
	s.muts, err = server.AppendUpdates(s.muts[:0], specs)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// The batch applies to the authoritative graph in place; oldG is the
	// pre-batch view the versioned core hands back — the source of the
	// batch's net edits and the sync-point state a mid-batch failover
	// re-ships from.
	oldG, err := c.vg.Apply(s.muts)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	newG := c.vg.Graph()
	tr.Span(-1, "graph.apply", tapply)
	// The batch is accepted: journal it before any worker sees it, so a
	// coordinator crash during fan-out cannot lose an applied batch.
	// A journal append failure rejects the batch with the cluster still
	// consistent (no fragment has been touched yet — the in-place apply
	// is rolled back).
	if c.cfg.Journal != nil {
		tj := tr.Now()
		if err := c.cfg.Journal.AppendBatch(specs); err != nil {
			if rerr := c.vg.Rollback(oldG); rerr != nil {
				// The authoritative graph is ahead of both journal and
				// fragments and cannot be walked back: fail-stop.
				c.failed = fmt.Errorf("cluster: journal: %v (rollback failed: %v)", err, rerr)
				return nil, c.failed
			}
			return nil, fmt.Errorf("cluster: journal: %w", err)
		}
		tr.Span(-1, "ha.journal_append", tj)
	}
	tball := tr.Now()
	// Fragment materialization upkeep is bounded by the (D-1)-ball around
	// inserted-edge endpoints and batch-created nodes — a node can only
	// move into an owned node's D-hop ball along a path through an
	// inserted edge, and deletions never extend a fragment — not by the
	// D-hop ball of every node the batch names, which for a 1-edge batch can
	// cover most of a dense graph. The batch's net edge edits, a removed
	// node's lost edges included, are every edge a fragment can have to
	// change. The ball is walked only when some worker is not settled:
	// a settled worker holds all of it already.
	edits := oldG.Edits()
	insEnds := s.insEnds[:0]
	for _, e := range edits {
		if e.Added {
			insEnds = append(insEnds, e.From, e.To)
		}
	}
	for v := oldG.NumNodes(); v < newG.NumNodes(); v++ {
		insEnds = append(insEnds, graph.NodeID(v))
	}
	slices.Sort(insEnds)
	insEnds = slices.Compact(insEnds)
	s.insEnds = insEnds
	var ball []graph.NodeID
	for _, w := range c.workers {
		if !settled(&w.ids, newG, insEnds) {
			if ball == nil { // else: walked, and not empty
				ball = c.ball.Ball(newG, insEnds, c.cfg.D-1)
			}
			s.workers[w.id].matCand = ball
		}
	}
	tr.Span(-1, "ball", tball)
	tr.Count("batch", len(specs))
	tr.Count("edits", len(edits))
	tr.Count("nodes", newG.NumNodes())
	c.om.updateBatch.Observe(float64(len(specs)))

	// Assign each node the batch created to the worker owning the fewest:
	// assignTo[i] is the worker of node oldG.NumNodes()+i.
	assignTo := resize(s.assignTo, newG.NumNodes()-oldG.NumNodes())
	ownedCount := resize(s.owned, len(c.workers))
	s.assignTo, s.owned = assignTo, ownedCount
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

	// Plan and execute concurrently across workers (each): planning reads
	// only shared immutable inputs plus the worker's own state, so
	// computing it inside the fan-out overlaps the planning of one worker
	// with the serialization and I/O of another. Per worker: the reply's
	// deltas and its Total, the candidates it re-judged, or its error.
	each(len(c.workers), func(i int) {
		w, ws := c.workers[i], &s.workers[i]
		tplan := tr.Now()
		p := &ws.plan
		if !c.planFor(w, p, oldG.NumNodes(), newG, edits, ws.matCand, assignTo) || p.empty() {
			c.om.workersSkipped.Inc()
			return
		}
		tr.Span(w.id, "plan", tplan)
		ws.contacted = true
		c.om.workersRouted.Inc()
		req := &server.Request{Cmd: "update", Updates: p.batch, Owned: p.assignL, Trace: tr.HopID()}
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
			ws.err = err
			return
		}
		tr.Nest(w.id, "rtt", trtt, tr.Now().Sub(trtt), resp.Profile)
		c.om.workerUpdateMS[w.id].ObserveSince(trtt)
		ws.deltas, ws.judged = resp.Deltas, resp.Total
		for _, gv := range p.newMat {
			w.ids.add(gv)
		}
		for _, gv := range p.assign {
			w.ids.setOwned(gv)
		}
		if len(w.copies) > 1 {
			tmir := tr.Now()
			req.Trace = 0 // a replica's record would have nowhere to go
			c.mirror(w, req)
			tr.Span(w.id, "ha.mirror", tmir)
		}
	})
	for i := range s.workers {
		if err := s.workers[i].err; err != nil { // the first, by worker id
			c.failed = err
			return nil, err
		}
	}
	c.batches++
	out := &UpdateResult{Nodes: newG.NumNodes(), Edges: newG.NumEdges(), Version: c.batches}
	for i := range s.workers {
		if ws := &s.workers[i]; ws.contacted {
			if out.Contacted == nil {
				out.Contacted = make([]int, 0, len(s.workers)-i)
			}
			out.Contacted = append(out.Contacted, i)
			out.AffectedSize += ws.judged
		}
	}
	c.om.updateAffected.Observe(float64(out.AffectedSize))
	c.om.affectedRatio.Set(int64(out.AffectedSize) * 1_000_000 / int64(out.Nodes))
	tr.Count("affected", out.AffectedSize)
	tm := tr.Now()
	if len(out.Contacted) > 0 {
		if out.Deltas, err = c.mergeDeltas(out.AffectedSize); err != nil {
			c.failed = err
			return nil, err
		}
	}
	tr.Span(-1, "merge", tm)
	c.om.updateCount.Inc()
	c.om.updateFanout.Observe(float64(len(out.Contacted)))
	done := time.Now()
	c.om.updateMS.Observe(msOf(done.Sub(start)))
	c.om.updateLockHold.Observe(msOf(done.Sub(locked)))
	return out, nil
}

// msOf converts d to the milliseconds a latency histogram observes.
func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// resize returns s with length n, reusing its array when it is large
// enough; the elements are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// settled reports, without walking the ball, that the fragment of ids
// holds every node of the new graph g within D-1 hops of the batch's
// insertion ends (ascending, distinct), for any D ≥ 1: each end is owned
// there, or next to a node owned there over an edge the batch did not
// insert (one that is not itself an end). A fragment holds its owned
// nodes' old D-balls, so such an end's old (D-1)-ball is held; and a path
// from an end runs over old edges after the last end on it, since an
// inserted edge joins two ends. A created node is held nowhere yet.
func settled(ids *idSpace, g *graph.Graph, ends []graph.NodeID) bool {
	ownedOld := func(e graph.Edge) bool {
		if !ids.owns(e.To) {
			return false
		}
		_, isEnd := slices.BinarySearch(ends, e.To)
		return !isEnd
	}
	for _, v := range ends {
		switch {
		case ids.owns(v):
		case !ids.has(v): // an owned node's neighbours are all held
			return false
		case !slices.ContainsFunc(g.Out(v), ownedOld) && !slices.ContainsFunc(g.In(v), ownedOld):
			return false
		}
	}
	return true
}

// planFor computes one worker's share of a global batch into p, and
// reports false, leaving p unset, when the batch cannot affect the worker: nothing is assigned to it, no owned
// candidate needs materialization upkeep, and no edit's endpoint is
// materialized there. An owned candidate the batch can flip lies within
// d hops of an edit's endpoint, which is then materialized here. matCand is
// the (D-1)-ball around inserted-edge endpoints and batch-created nodes
// (it bounds materialization maintenance), ascending, or nil when the
// worker is settled, which proves the fragment holds all of it; the
// owned candidates in it are gathered only when some node of it is not
// materialized here, the only case in which they can need anything.
// edits are the batch's net edge edits (OldView.Edits): each edge present
// on exactly one side of the batch, its Added bit saying which, so an
// edge's presence before and after is read off its edit, never probed in
// a row. assignTo[i] is the worker the batch's i-th created node, oldN+i,
// goes to. planFor only reads its inputs and the worker's id space: the
// caller extends the latter once the primary holds the batch. p's slices
// are the worker's from the batch before, overwritten here.
func (c *Coordinator) planFor(w *worker, p *workerPlan, oldN int, newG *graph.Graph, edits []graph.EdgeEdit, matCand []graph.NodeID, assignTo []int) bool {
	ids := &w.ids
	// The candidate pool: the part of matCand not materialized here.
	pool := p.pool[:0]
	for _, u := range matCand {
		if !ids.has(u) {
			pool = append(pool, u)
		}
	}
	// Owned candidates whose d-hop neighborhood must stay materialized,
	// when there is a pool to draw from, followed by the nodes the batch
	// assigns here (all ≥ oldN, so the list ascends): the roots of the
	// expansion below.
	p.pool = pool
	roots := p.roots[:0]
	if len(pool) > 0 {
		for _, v := range matCand {
			if ids.owns(v) {
				roots = append(roots, v)
			}
		}
	}
	assign := p.assign[:0]
	for i, wid := range assignTo {
		if wid == w.id {
			assign = append(assign, graph.NodeID(oldN+i))
		}
	}
	roots = append(roots, assign...)
	p.roots, p.assign = roots, assign
	if len(roots) == 0 && !slices.ContainsFunc(edits, func(e graph.EdgeEdit) bool { return ids.has(e.From) || ids.has(e.To) }) {
		return false
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
	newMat := p.newMat[:0]
	if len(roots) > 0 {
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
			needed := resize(p.needed, len(pool))
			clear(needed)
			p.needed = needed
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

	p.newMat = newMat

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

	// Edge diff between the old and new induced subgraphs. The global
	// edge delta is edits, and the mirror additionally gains every edge
	// incident to a newly materialized node — an edge of the new graph no
	// fragment copy held, so Added — so the candidate set comes straight
	// from the batch and newMat adjacency instead of rescanning every
	// edited node's (possibly hub-sized) neighborhood. Keys are compared
	// by edge alone (the pre-batch view and the post-batch graph share one
	// label id space); a duplicate pairs two Added keys, so either may stay.
	keys := append(p.keys[:0], edits...)
	for _, v := range newMat {
		for _, e := range newG.Out(v) {
			if matNew(e.To) {
				keys = append(keys, graph.EdgeEdit{From: v, To: e.To, Label: e.Label, Added: true})
			}
		}
		for _, e := range newG.In(v) {
			if matNew(e.To) {
				keys = append(keys, graph.EdgeEdit{From: e.To, To: v, Label: e.Label, Added: true})
			}
		}
	}
	edge := func(a, b graph.EdgeEdit) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(a.Label, b.Label))
	}
	slices.SortFunc(keys, edge)
	keys = slices.CompactFunc(keys, func(a, b graph.EdgeEdit) bool { return edge(a, b) == 0 })
	p.keys = keys

	// The batch goes on the wire, so it is the batch's own, allocated on
	// its first op for the most it can hold: an addNode per newly
	// materialized node and an edge op per key.
	var batch []server.UpdateSpec
	emit := func(u server.UpdateSpec) {
		if batch == nil {
			batch = make([]server.UpdateSpec, 0, len(newMat)+len(keys))
		}
		batch = append(batch, u)
	}
	for _, gv := range newMat {
		emit(server.UpdateSpec{Op: "addNode", Label: newG.NodeLabelName(gv)})
	}
	for _, k := range keys {
		oldHas := !k.Added && ids.has(k.From) && ids.has(k.To)
		newHas := k.Added && matNew(k.From) && matNew(k.To)
		if oldHas == newHas {
			continue
		}
		op := "addEdge"
		if oldHas {
			op = "removeEdge"
		}
		emit(server.UpdateSpec{
			Op:    op,
			From:  int64(localOf(k.From)),
			To:    int64(localOf(k.To)),
			Label: newG.LabelName(k.Label),
		})
	}

	p.batch, p.assignL = batch, make([]int64, len(assign))
	for i, gv := range assign {
		p.assignL[i] = int64(localOf(gv))
	}
	return true
}

// mergeDeltas folds the contacted workers' replies (the scratch's deltas,
// by worker id) into one entry per registered watch, in name order. A
// worker's reply names only the watches whose answers changed there, in
// local ids, possibly twice — a re-verification delta and an assignment
// delta; the added and removed sets are disjoint unions (ownership
// partitions the nodes). Every entry's Affected is affected, the workers'
// summed work.
func (c *Coordinator) mergeDeltas(affected int) ([]server.WatchDelta, error) {
	s := &c.upd
	names := s.names[:0]
	for name := range c.watches {
		names = append(names, name)
	}
	slices.Sort(names)
	s.names = names
	runs := resize(s.runs, len(names))
	s.runs = runs
	for i := range runs {
		runs[i][0], runs[i][1] = runs[i][0][:0], runs[i][1][:0]
	}
	for wid := range s.workers {
		for _, d := range s.workers[wid].deltas {
			added, err := c.workers[wid].globalRun(d.Added)
			if err != nil {
				return nil, err
			}
			removed, err := c.workers[wid].globalRun(d.Removed)
			if err != nil {
				return nil, err
			}
			i, ok := slices.BinarySearch(names, d.Watch)
			if !ok {
				continue
			}
			runs[i][0], runs[i][1] = append(runs[i][0], added), append(runs[i][1], removed)
		}
	}
	out := make([]server.WatchDelta, len(names))
	for i, name := range names {
		out[i] = server.WatchDelta{Watch: name, Affected: affected}
		if r := runs[i]; len(r[0]) > 0 {
			out[i].Added, out[i].Removed = server.IDs(mergeRuns(r[0])), server.IDs(mergeRuns(r[1]))
		}
	}
	return out, nil
}
