package partition

import (
	"fmt"
	"slices"
)

// Extend incrementally adapts a d-hop preserving partition to a larger
// radius d′ (the Remark of §5.2: for a query with radius d′ > d, each
// worker incrementally loads the missing Nd′−d rings of its border nodes
// instead of repartitioning). Ownership is unchanged; each fragment loads
// exactly the nodes its owned neighborhoods now additionally need. The
// receiver is not modified.
func (p *Partition) Extend(dNew int) (*Partition, error) {
	if dNew < p.D {
		return nil, fmt.Errorf("partition: cannot shrink from d=%d to d=%d", p.D, dNew)
	}
	out := &Partition{G: p.G, D: dNew, Fragments: make([]*Fragment, len(p.Fragments))}
	if dNew == p.D {
		for i, f := range p.Fragments {
			c := *f
			out.Fragments[i] = &c
		}
		return out, nil
	}

	bfs := newBFS(p.G.NumNodes())
	for i, f := range p.Fragments {
		nf := &Fragment{Worker: f.Worker, Owned: slices.Clone(f.Owned)}
		nf.Nodes, nf.Size = bfs.load(p.G, f.Nodes, f.Owned, dNew)
		// Incremental cost: only newly loaded data plus one ring scan per
		// owned node.
		nf.Work = f.Work + len(nf.Nodes) - len(f.Nodes) + len(f.Owned)
		out.Fragments[i] = nf
	}
	return out, nil
}
