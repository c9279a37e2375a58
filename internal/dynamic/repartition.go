package dynamic

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
)

// RepartitionStats reports the incremental maintenance work.
type RepartitionStats struct {
	// AffectedOwners is the number of owned nodes whose d-hop
	// neighborhood had to be re-expanded.
	AffectedOwners int
	// LoadedNodes is the number of node slots newly materialized into
	// fragments.
	LoadedNodes int
	// NewOwners is the number of added nodes that received an owner.
	NewOwners int
}

// Repartition incrementally maintains a d-hop preserving partition after
// an update batch, per the §5.2 remark: instead of re-running DPar, each
// fragment reloads Nd(v) only for its affected owners, and newly added
// nodes are assigned (with their neighborhoods) to the smallest fragment.
//
// oldG must be the graph p was built over, newG/touched the output of
// Apply. The returned partition references newG; p is not modified.
// Deletions never break the covering property (neighborhoods only
// shrink), so only insertions force loading.
func Repartition(p *partition.Partition, oldG, newG *graph.Graph, touched []graph.NodeID) (*partition.Partition, RepartitionStats) {
	var st RepartitionStats
	np := &partition.Partition{G: newG, D: p.D, Fragments: make([]*partition.Fragment, len(p.Fragments))}

	// Affected owners: within D of a touched node in the new graph — a
	// neighborhood only gains nodes along a path through an insertion.
	affected := make(map[graph.NodeID]bool)
	for _, v := range new(BallScratch).Ball(newG, touched, p.D) {
		affected[v] = true
	}

	present := make([]map[graph.NodeID]bool, len(p.Fragments))
	for i, f := range p.Fragments {
		present[i] = make(map[graph.NodeID]bool, len(f.Nodes))
		for _, v := range f.Nodes {
			present[i][v] = true
		}
		np.Fragments[i] = &partition.Fragment{
			Worker: f.Worker,
			Owned:  append([]graph.NodeID(nil), f.Owned...),
		}
	}

	// Reload neighborhoods of affected existing owners.
	for i, f := range p.Fragments {
		for _, v := range f.Owned {
			if !affected[v] {
				continue
			}
			st.AffectedOwners++
			for _, u := range newG.Neighborhood(v, p.D) {
				if !present[i][u] {
					present[i][u] = true
					st.LoadedNodes++
				}
			}
			np.Fragments[i].Work += len(newG.Neighborhood(v, p.D))
		}
	}

	// Assign new nodes (ids ≥ old node count) to the smallest fragment,
	// loading their neighborhoods.
	sizes := make([]int, len(p.Fragments))
	for i := range present {
		sizes[i] = len(present[i])
	}
	var newNodes []graph.NodeID
	for _, v := range touched {
		if int(v) >= oldG.NumNodes() {
			newNodes = append(newNodes, v)
		}
	}
	sort.Slice(newNodes, func(i, j int) bool { return newNodes[i] < newNodes[j] })
	for _, v := range newNodes {
		smallest := 0
		for j := 1; j < len(sizes); j++ {
			if sizes[j] < sizes[smallest] {
				smallest = j
			}
		}
		nd := newG.Neighborhood(v, p.D)
		for _, u := range nd {
			if !present[smallest][u] {
				present[smallest][u] = true
				st.LoadedNodes++
				sizes[smallest]++
			}
		}
		np.Fragments[smallest].Owned = append(np.Fragments[smallest].Owned, v)
		np.Fragments[smallest].Work += len(nd)
		st.NewOwners++
	}

	for i, f := range np.Fragments {
		nodes := make([]graph.NodeID, 0, len(present[i]))
		for v := range present[i] {
			nodes = append(nodes, v)
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
		f.Nodes = nodes
		sort.Slice(f.Owned, func(a, b int) bool { return f.Owned[a] < f.Owned[b] })
		f.Size = inducedSize(newG, present[i])
	}
	return np, st
}

func inducedSize(g *graph.Graph, present map[graph.NodeID]bool) int {
	edges := 0
	for v := range present {
		for _, e := range g.Out(v) {
			if present[e.To] {
				edges++
			}
		}
	}
	return len(present) + edges
}
