// Package dynamic maintains quantified-matching state under graph updates,
// implementing the remark of §5.2: "When G is updated, coordinator Sc
// assigns the changes to each fragment. Each worker then applies
// incremental distance querying to maintain Nd(v) of all affected v."
//
// The locality argument is the one behind Lemma 9(1): whether a node vx
// answers a pattern Q depends only on the subgraph induced by Nd(vx),
// where d = core.RequiredHops(Q). An update therefore can only change
// the membership of focus nodes within d undirected hops of a touched
// node — measured in the old graph for deletions and in the new graph for
// insertions (AffectedWithin, the reference bound). Inside that ball the
// pattern decides. A countable pattern (a tree whose only same-label nodes
// are adjacent, quantified away from the focus) keeps per-node counts that
// a batch's edits move, and Matcher re-judges only the candidates whose
// counts moved, with no search. Any other pattern's ReachPlan walks the
// pattern's own labels and directions back from each changed edge, and
// Matcher re-verifies the candidates the walk reaches by a search. Every
// other cached answer is reused. Engine holds a session's standing
// watches, one Matcher per distinct pattern however many names subscribe
// to it.
//
// A batch is a []graph.Mutation, the graph's own write vocabulary, applied
// by graph.Versioned.Apply; Apply and AffectedWithin here are the oracles
// the serving path is held against.
package dynamic

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/graph"
)

type edgeKey struct {
	from, to graph.NodeID
	label    string
}

// Apply applies a batch of updates to g, in order, and returns the new
// finalized graph plus the sorted set of touched nodes: endpoints of
// inserted or removed edges, newly added nodes, and isolated nodes. Node
// ids are stable: MutRemoveNode isolates the node but keeps its slot, so
// answer sets over old and new graphs are directly comparable.
//
// Apply is the rebuild-the-world path: it re-materializes the full
// edge-set model and finalizes a whole new graph, costing O(|G|) per
// batch. Every serving path runs on graph.Versioned.Apply; Apply is the
// oracle the versioned core is verified against — its callers are the
// differential tests, benchmark/'s oracle and internal/bench's recompute
// baseline.
func Apply(g *graph.Graph, ups []graph.Mutation) (*graph.Graph, []graph.NodeID, error) {
	if _, err := graph.CheckBatch(ups, g.NumNodes()); err != nil {
		return nil, nil, err
	}
	// Build the edge-set model of g, then replay the batch in order.
	labels := make([]string, g.NumNodes())
	edges := make(map[edgeKey]bool, g.NumEdges())
	for vi := 0; vi < g.NumNodes(); vi++ {
		v := graph.NodeID(vi)
		labels[vi] = g.NodeLabelName(v)
		for _, e := range g.Out(v) {
			edges[edgeKey{v, e.To, g.LabelName(e.Label)}] = true
		}
	}

	touched := make(map[graph.NodeID]bool)
	for _, u := range ups {
		switch u.Op {
		case graph.MutAddNode:
			labels = append(labels, u.Label)
			touched[graph.NodeID(len(labels)-1)] = true
		case graph.MutAddEdge, graph.MutRemoveEdge:
			k := edgeKey{u.From, u.To, u.Label}
			if u.Op == graph.MutAddEdge {
				edges[k] = true
			} else {
				delete(edges, k)
			}
			touched[k.from] = true
			touched[k.to] = true
		case graph.MutRemoveNode:
			for k := range edges {
				if k.from == u.From || k.to == u.From {
					delete(edges, k)
					// Former neighbors are touched too: their adjacency
					// changed even though no update names them.
					touched[k.from] = true
					touched[k.to] = true
				}
			}
			touched[u.From] = true
		}
	}

	ng := graph.New(len(labels))
	for _, l := range labels {
		ng.AddNode(l)
	}
	keys := make([]edgeKey, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b edgeKey) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to), strings.Compare(a.label, b.label))
	})
	for _, k := range keys {
		ng.AddEdge(k.from, k.to, k.label)
	}
	ng.Finalize()

	out := make([]graph.NodeID, 0, len(touched))
	for v := range touched {
		out = append(out, v)
	}
	slices.Sort(out)
	return ng, out, nil
}

// ApplyVersioned is vg.Apply(ups) plus the nodes the batch named: its
// edits' endpoints and the nodes it created. benchmark/ imports this name
// and seeds AffectedWithin with the nodes; delete after ROADMAP 1(a).
func ApplyVersioned(vg *graph.Versioned, ups []graph.Mutation) (*graph.OldView, []graph.NodeID, error) {
	old, err := vg.Apply(ups)
	if err != nil {
		return nil, nil, err
	}
	var nodes []graph.NodeID
	for _, e := range old.Edits() {
		nodes = append(nodes, e.From, e.To)
	}
	for v := old.NumNodes(); v < vg.Graph().NumNodes(); v++ {
		nodes = append(nodes, graph.NodeID(v))
	}
	return old, nodes, nil
}

// AffectedWithin returns the sorted set of nodes within hops undirected
// hops of any touched node, unioned over the old and the new graph: a
// deletion affects nodes that could reach the endpoints before the change,
// an insertion affects nodes that can reach them after. The old side is
// a graph.View so a versioned core's cheap pre-batch OldView serves it
// without materializing a second graph.
//
// This label-blind ball is the reference bound tests and benchmarks hold
// ReachPlan.Affected against; production re-verification runs on the
// reach plan, and materialization upkeep on BallScratch.Ball.
func AffectedWithin(oldG, newG graph.View, touched []graph.NodeID, hops int) []graph.NodeID {
	n := oldG.NumNodes()
	if m := newG.NumNodes(); m > n {
		n = m
	}
	// One multi-source BFS per graph version over flat visited arrays:
	// per-touched-node Neighborhood calls would re-walk (and re-sort) the
	// shared ball once per source, which dominated the coordinator's
	// update cost. Scanning the shared array ascending at the end yields
	// the sorted union without a sort.
	seen := make([]bool, n)
	markBall(oldG, touched, hops, seen)
	markBall(newG, touched, hops, seen)
	out := make([]graph.NodeID, 0, len(touched))
	for v, ok := range seen {
		if ok {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// BallScratch holds Ball's visited marks between calls, so that a call
// allocates nothing sized by the graph: seen has one bit per node, live
// one bit per word of seen that is not zero. A call leaves both all zero.
// The zero value is ready for use; the tables grow when the graph has. Not
// safe for concurrent use.
type BallScratch struct {
	seen, live []uint64
}

// Ball returns the sorted set of nodes within hops undirected steps of
// any source node over g; sources outside the graph are ignored. The
// cluster coordinator calls it on every batch that inserts, to bound
// fragment materialization upkeep to the region around inserted edges, so
// its cost is the ball's: the marks are read back in order through live,
// which skips 4096 unreached nodes a step, and cleared on the way.
// (Sorting the breadth-first queue instead was measured at four times the
// cost — one hop around 8 persons is hundreds of nodes — and a hash set
// for the marks is slower still.) AffectedWithin(g, g, sources, hops) is
// the same set, the slow way, and the oracle of this function's test.
func (s *BallScratch) Ball(g graph.View, sources []graph.NodeID, hops int) []graph.NodeID {
	n := g.NumNodes()
	if words := (n + 63) / 64; words > len(s.seen) {
		s.seen = append(s.seen, make([]uint64, words-len(s.seen))...)
		s.live = append(s.live, make([]uint64, (words+63)/64-len(s.live))...)
	}
	// Every node enters the queue once, when first reached, so the
	// frontier of a hop is the stretch the hop before appended.
	var queue []graph.NodeID
	reach := func(v graph.NodeID) {
		w, bit := int(v)>>6, uint64(1)<<(uint(v)&63)
		if s.seen[w]&bit == 0 {
			s.seen[w] |= bit
			s.live[w>>6] |= 1 << (uint(w) & 63)
			queue = append(queue, v)
		}
	}
	for _, v := range sources {
		if int(v) < n { // else: a node added after this graph's version
			reach(v)
		}
	}
	lo := 0
	for hop := 0; hop < hops && lo < len(queue); hop++ {
		hi := len(queue)
		for _, v := range queue[lo:hi] {
			for _, e := range g.Out(v) {
				reach(e.To)
			}
			for _, e := range g.In(v) {
				reach(e.To)
			}
		}
		lo = hi
	}
	out := queue[:0] // as long as the queue, and the queue has been read
	for i, l := range s.live {
		for ; l != 0; l &= l - 1 {
			w := i<<6 | bits.TrailingZeros64(l)
			for word := s.seen[w]; word != 0; word &= word - 1 {
				out = append(out, graph.NodeID(w<<6|bits.TrailingZeros64(word)))
			}
			s.seen[w] = 0
		}
		s.live[i] = 0
	}
	return out
}

// markBall sets seen[v] for every node within hops undirected steps of a
// source, via a multi-source BFS over g. Sources outside g are skipped.
func markBall(g graph.View, sources []graph.NodeID, hops int, seen []bool) {
	visited := make([]bool, g.NumNodes())
	var frontier, next []graph.NodeID
	for _, v := range sources {
		if int(v) >= g.NumNodes() || visited[v] {
			continue // node added after this graph's version
		}
		visited[v] = true
		seen[v] = true
		frontier = append(frontier, v)
	}
	for hop := 0; hop < hops && len(frontier) > 0; hop++ {
		next = next[:0]
		for _, v := range frontier {
			for _, e := range g.Out(v) {
				if !visited[e.To] {
					visited[e.To] = true
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
			for _, e := range g.In(v) {
				if !visited[e.To] {
					visited[e.To] = true
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		frontier, next = next, frontier
	}
}
