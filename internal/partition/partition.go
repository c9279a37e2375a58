// Package partition implements the d-hop preserving graph partition of §5:
// a balanced base partition, border-node discovery, neighborhood loading
// balanced by a multiple-knapsack assignment, and a completion phase, so
// that every node's d-hop neighborhood is fully contained in the fragment
// that owns the node. Quantified patterns of radius ≤ d then evaluate on
// each fragment independently, with no inter-fragment communication
// (Lemma 9(1)).
package partition

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Config controls DPar.
type Config struct {
	Workers int
	D       int // hop radius to preserve (the paper's d; queries need radius ≤ d)
}

// balanceC is the fragment capacity multiplier c: each fragment's size
// (nodes + edges, counting loaded neighborhoods) is capped at c·|G|/n
// during the knapsack phase.
const balanceC = 2.5

// Fragment is the data one worker manages: the nodes materialized at the
// worker (base chunk plus loaded neighborhoods) and the nodes it owns —
// the focus candidates it is responsible for answering, each with its full
// d-hop neighborhood present locally.
type Fragment struct {
	Worker int
	Nodes  []graph.NodeID // materialized nodes, ascending
	Owned  []graph.NodeID // owned (covered) nodes, ascending
	Size   int            // |nodes| + |edges| of the induced subgraph
	Work   int            // bookkeeping cost incurred building this fragment
}

// Partition is a d-hop preserving partition of a graph.
type Partition struct {
	G         *graph.Graph
	D         int
	Fragments []*Fragment
}

// DPar computes a d-hop preserving partition (§5.2):
//
//  1. base partition: a BFS-ordered chunking into Workers balanced pieces
//     (BFS order keeps neighborhoods contiguous, shrinking borders);
//  2. border discovery: nodes whose d-hop neighborhood leaves their chunk,
//     their neighborhoods sized 64 per sweep (blockBFS);
//  3. balanced loading: each border node's Nd(v) is assigned to a fragment
//     by the multiple-knapsack heuristic, subject to the c·|G|/n cap;
//  4. completion: still-uncovered nodes go to the currently smallest
//     fragment, so the partition is complete; each fragment then loads
//     its chunk plus the neighborhoods it was assigned in one BFS.
func DPar(g *graph.Graph, cfg Config) (*Partition, error) {
	return dpar(g, cfg, balanceC, newBlockBFS(g.NumNodes()))
}

// dpar is DPar with capacity multiplier c, sizing border neighborhoods
// with k, a kernel over g's nodes that the tests read back.
func dpar(g *graph.Graph, cfg Config, c float64, k *blockBFS) (*Partition, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("partition: need at least 1 worker, got %d", cfg.Workers)
	}
	if cfg.D < 0 {
		return nil, fmt.Errorf("partition: negative hop radius %d", cfg.D)
	}
	n := cfg.Workers
	p := &Partition{G: g, D: cfg.D, Fragments: make([]*Fragment, n)}
	for i := range p.Fragments {
		p.Fragments[i] = &Fragment{Worker: i}
	}
	if g.NumNodes() == 0 {
		return p, nil
	}

	// (1) Base partition: BFS order over the whole graph, cut into n
	// equal-count chunks.
	order := bfsOrder(g)
	home := make([]int, g.NumNodes())
	chunk := (len(order) + n - 1) / n
	for i, v := range order {
		home[v] = i / chunk
	}

	// (2) Border discovery with early exit: the BFS from v stops at the
	// first foreign node. Neighborhoods are sized only for border nodes,
	// 64 per sweep, and never stored. Work accounting: each worker scans
	// its chunk and walks its border nodes' neighborhoods.
	var borders []graph.NodeID
	bfs := newBFS(g.NumNodes())
	for _, v := range order {
		h := home[v]
		foreign, visited := bfs.insideFragment(g, v, cfg.D, home, h)
		p.Fragments[h].Work += visited
		if foreign < 0 {
			p.Fragments[h].Owned = append(p.Fragments[h].Owned, v)
		} else {
			borders = append(borders, v)
		}
	}
	count, size := k.sizeAll(g, borders, cfg.D)
	for i, v := range borders {
		p.Fragments[home[v]].Work += count[i]
	}

	// (3) Balanced neighborhood loading via MKP.
	capTotal := int(c * float64(g.Size()) / float64(n))
	loads := make([]int, n) // base chunk sizes, then plus what each bin is given
	for v, h := range home {
		loads[h]++
		for _, e := range g.Out(graph.NodeID(v)) {
			if home[e.To] == h {
				loads[h]++
			}
		}
	}
	caps := make([]int, n)
	for i := range caps {
		caps[i] = max(capTotal-loads[i], 0)
	}
	items := make([]Item, len(borders))
	for i, v := range borders {
		items[i] = Item{ID: i, Weight: size[i], Prefer: home[v]}
	}
	assignment := AssignMKP(items, caps)
	given := make([][]graph.NodeID, n)
	give := func(i, bin int) {
		given[bin] = append(given[bin], borders[i])
		p.Fragments[bin].Work += size[i]
		loads[bin] += size[i]
	}
	for i, bin := range assignment {
		if bin >= 0 {
			give(i, bin)
		}
	}

	// (4) Completion: place leftovers on the smallest fragment.
	for i, bin := range assignment {
		if bin >= 0 {
			continue
		}
		smallest := 0
		for j := 1; j < n; j++ {
			if loads[j] < loads[smallest] {
				smallest = j
			}
		}
		give(i, smallest)
	}

	// Materialize: each fragment is its chunk plus the neighborhoods of
	// the border nodes it was given.
	for i, f := range p.Fragments {
		base := order[min(i*chunk, len(order)):min((i+1)*chunk, len(order))]
		f.Nodes, f.Size = bfs.load(g, base, given[i], cfg.D)
		f.Owned = append(f.Owned, given[i]...)
		slices.Sort(f.Owned)
	}
	return p, nil
}

// OwnerMap returns node → owning worker for every graph node (-1 for a
// node no fragment owns, which Validate rejects) — the routing-table view
// of the partition for callers that look up owners by node rather than
// iterating fragments.
func (p *Partition) OwnerMap() []int {
	owner := make([]int, p.G.NumNodes())
	for i := range owner {
		owner[i] = -1
	}
	for _, f := range p.Fragments {
		for _, v := range f.Owned {
			owner[v] = f.Worker
		}
	}
	return owner
}

// OwnedCounts returns each fragment's owned-node count, indexed by
// worker. This is the per-fragment answering load the partition assigned
// — the cluster layer uses it as the placement weight when choosing
// which pool endpoints host a fragment's replicas.
func (p *Partition) OwnedCounts() []int {
	counts := make([]int, len(p.Fragments))
	for i, f := range p.Fragments {
		counts[i] = len(f.Owned)
	}
	return counts
}

// Skew returns min/max fragment size over the NON-EMPTY fragments, in
// (0, 1]; the paper reports ≥ 0.8 at n = 8. Empty fragments are
// excluded: they carry no load, so a partition whose populated
// fragments are perfectly balanced used to report 0 — "maximally
// skewed" — just because the graph was smaller than the worker count.
// All fragments empty yields 0.
func (p *Partition) Skew() float64 {
	sizes := make([]int, len(p.Fragments))
	for i, f := range p.Fragments {
		sizes[i] = f.Size
	}
	return SkewOf(sizes)
}

// SkewOf is Skew over a plain size slice — shared with the cluster
// front end, which reports the skew of live fragment sizes without
// holding a Partition.
func SkewOf(sizes []int) float64 {
	min, max := -1, 0
	for _, s := range sizes {
		if s == 0 {
			continue
		}
		if s > max {
			max = s
		}
		if min < 0 || s < min {
			min = s
		}
	}
	if max == 0 {
		return 0
	}
	return float64(min) / float64(max)
}

// MaxWork returns the maximum per-worker bookkeeping work — the simulated
// parallel cost of building the partition.
func (p *Partition) MaxWork() int {
	max := 0
	for _, f := range p.Fragments {
		if f.Work > max {
			max = f.Work
		}
	}
	return max
}

// TotalWork returns the summed bookkeeping work across workers — the
// sequential cost of building the partition.
func (p *Partition) TotalWork() int {
	total := 0
	for _, f := range p.Fragments {
		total += f.Work
	}
	return total
}

// Validate checks the partition invariants: every graph node owned exactly
// once, and every owned node's d-hop neighborhood materialized in its
// fragment (the covering property).
func (p *Partition) Validate() error {
	ownedBy := make([]int, p.G.NumNodes())
	for i := range ownedBy {
		ownedBy[i] = -1
	}
	bfs := newBFS(p.G.NumNodes())
	member := make([]int, p.G.NumNodes()) // last fragment (1-based) to hold the node
	for i, f := range p.Fragments {
		for _, v := range f.Nodes {
			member[v] = i + 1
		}
		for _, v := range f.Owned {
			if ownedBy[v] >= 0 {
				return fmt.Errorf("partition: node %d owned by workers %d and %d", v, ownedBy[v], f.Worker)
			}
			ownedBy[v] = f.Worker
			if member[v] != i+1 {
				return fmt.Errorf("partition: worker %d owns %d but does not hold it", f.Worker, v)
			}
			if u, _ := bfs.insideFragment(p.G, v, p.D, member, i+1); u >= 0 {
				return fmt.Errorf("partition: worker %d owns %d but misses neighbor %d", f.Worker, v, u)
			}
		}
	}
	for v, w := range ownedBy {
		if w < 0 {
			return fmt.Errorf("partition: node %d is not owned by any worker", v)
		}
	}
	return nil
}

func bfsOrder(g *graph.Graph) []graph.NodeID {
	seen := make([]bool, g.NumNodes())
	order := make([]graph.NodeID, 0, g.NumNodes()) // doubles as the BFS queue
	for start := range seen {
		if seen[start] {
			continue
		}
		seen[start] = true
		order = append(order, graph.NodeID(start))
		for head := len(order) - 1; head < len(order); head++ {
			for _, es := range [2][]graph.Edge{g.Out(order[head]), g.In(order[head])} {
				for _, e := range es {
					if !seen[e.To] {
						seen[e.To] = true
						order = append(order, e.To)
					}
				}
			}
		}
	}
	return order
}
