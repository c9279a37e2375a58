// Package stats computes graph summary statistics: node-label histograms,
// edge-triple (source label, edge label, target label) frequencies, and
// per-triple participating source and target counts.
//
// The statistics are a single O(|G|) pass over the graph and are
// deterministic. They are served by the STATS command of the query server.
package stats

import (
	"sort"

	"repro/internal/graph"
)

// Triple identifies an edge class: the label of the source node, the edge
// label, and the label of the target node.
type Triple struct {
	Src, Edge, Dst graph.LabelID
}

// TripleStats aggregates the edges of one triple class.
type TripleStats struct {
	// Count is the number of edges in the class.
	Count int
	// SrcNodes is the number of distinct source nodes with at least one
	// edge in the class; DstNodes likewise for targets.
	SrcNodes int
	DstNodes int
}

// Stats is the statistics summary of one graph. Build it with Collect.
type Stats struct {
	Nodes int
	Edges int

	// LabelCount[l] is the number of nodes with label l.
	LabelCount map[graph.LabelID]int

	// Triples maps each edge class to its aggregate.
	Triples map[Triple]TripleStats

	// MaxOutDegree and MaxInDegree are over all nodes and labels.
	MaxOutDegree int
	MaxInDegree  int
}

// Collect computes statistics for a finalized graph in one pass.
func Collect(g *graph.Graph) *Stats {
	s := &Stats{
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		LabelCount: make(map[graph.LabelID]int),
		Triples:    make(map[Triple]TripleStats),
	}
	n := g.NumNodes()
	// lastSrc/lastDst record, per triple class, the most recent node counted
	// as a distinct participant. Nodes are visited in ascending order, so a
	// "last == v" check deduplicates without a per-node set.
	lastSrc := make(map[Triple]graph.NodeID)
	lastDst := make(map[Triple]graph.NodeID)
	for vi := 0; vi < n; vi++ {
		v := graph.NodeID(vi)
		s.LabelCount[g.NodeLabel(v)]++
		if d := g.OutDegree(v); d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		if d := g.InDegree(v); d > s.MaxInDegree {
			s.MaxInDegree = d
		}
		srcLabel := g.NodeLabel(v)
		for _, e := range g.Out(v) {
			t := Triple{Src: srcLabel, Edge: e.Label, Dst: g.NodeLabel(e.To)}
			ts := s.Triples[t]
			ts.Count++
			if last, ok := lastSrc[t]; !ok || last != v {
				ts.SrcNodes++
				lastSrc[t] = v
			}
			s.Triples[t] = ts
		}
		dstLabel := srcLabel
		for _, e := range g.In(v) {
			t := Triple{Src: g.NodeLabel(e.To), Edge: e.Label, Dst: dstLabel}
			if last, ok := lastDst[t]; !ok || last != v {
				ts := s.Triples[t]
				ts.DstNodes++
				s.Triples[t] = ts
				lastDst[t] = v
			}
		}
	}
	return s
}

// CollectOwned computes statistics restricted to an owned node set — a
// cluster worker's share of the global statistics. Nodes, labels and
// degrees count owned nodes only; an edge belongs to a class Count when
// its SOURCE is owned; SrcNodes (DstNodes) counts owned nodes with an
// out-edge (in-edge) of the class.
//
// Exactness: ownership partitions the global node set, and a
// d-hop-preserving fragment (d ≥ 1) materializes every in- and out-edge
// of each owned node, so each global node is counted by exactly one
// worker and each global edge's class membership by exactly its source's
// owner. Summing per-worker CollectOwned results over a fragmentation
// therefore reproduces Collect of the global graph exactly — Count,
// SrcNodes, DstNodes, label counts and totals alike. (MaxOut/InDegree
// merge by max, not sum.)
//
// The owned slice need not be sorted; it is visited in ascending order
// internally so the last-node dedup trick from Collect still applies.
func CollectOwned(g *graph.Graph, owned []graph.NodeID) *Stats {
	sorted := make([]graph.NodeID, len(owned))
	copy(sorted, owned)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s := &Stats{
		Nodes:      len(sorted),
		LabelCount: make(map[graph.LabelID]int),
		Triples:    make(map[Triple]TripleStats),
	}
	lastSrc := make(map[Triple]graph.NodeID)
	lastDst := make(map[Triple]graph.NodeID)
	for _, v := range sorted {
		s.LabelCount[g.NodeLabel(v)]++
		if d := g.OutDegree(v); d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
		if d := g.InDegree(v); d > s.MaxInDegree {
			s.MaxInDegree = d
		}
		srcLabel := g.NodeLabel(v)
		for _, e := range g.Out(v) {
			s.Edges++
			t := Triple{Src: srcLabel, Edge: e.Label, Dst: g.NodeLabel(e.To)}
			ts := s.Triples[t]
			ts.Count++
			if last, ok := lastSrc[t]; !ok || last != v {
				ts.SrcNodes++
				lastSrc[t] = v
			}
			s.Triples[t] = ts
		}
		for _, e := range g.In(v) {
			t := Triple{Src: g.NodeLabel(e.To), Edge: e.Label, Dst: srcLabel}
			if last, ok := lastDst[t]; !ok || last != v {
				ts := s.Triples[t]
				ts.DstNodes++
				s.Triples[t] = ts
				lastDst[t] = v
			}
		}
	}
	return s
}
