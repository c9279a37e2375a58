package graph

import (
	"fmt"
	"slices"
)

// CheckIndex verifies the label-run index against the adjacency rows it
// summarizes. Each row's runs must be exactly the runs a rebuild makes
// (appendRuns), no empty or stale run left in place. Then, through the
// public read API: for every node and every interned label (plus one id
// past the interner, a label no row carries), OutByLabel/InByLabel must
// equal the label-filter of Out/In, CountOut the length of that filter,
// and HasEdge a linear scan of Out. Every
// maintenance path — Finalize, Clone, Induced, the loaders, and
// Versioned.Apply/Rollback — must leave a graph that passes; tests of
// this and other packages call it after each of them.
func (g *Graph) CheckIndex() error {
	filter := func(row []Edge, l LabelID) []Edge {
		var out []Edge
		for _, e := range row {
			if e.Label == l {
				out = append(out, e)
			}
		}
		return out
	}
	same := func(a, b []Edge) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for v := range g.out {
		if out, in := appendRuns(nil, g.out[v]), appendRuns(nil, g.in[v]); !slices.Equal(g.outRuns[v], out) || !slices.Equal(g.inRuns[v], in) {
			return fmt.Errorf("graph: runs of node %d are %v out, %v in; a rebuild gives %v, %v", v, g.outRuns[v], g.inRuns[v], out, in)
		}
	}
	for vi := 0; vi < g.NumNodes(); vi++ {
		v := NodeID(vi)
		for l := LabelID(0); int(l) <= g.Labels(); l++ {
			want := filter(g.Out(v), l)
			if got := g.OutByLabel(v, l); !same(got, want) {
				return fmt.Errorf("graph: OutByLabel(%d, %d) = %v, row filter gives %v", v, l, got, want)
			}
			if got := g.CountOut(v, l); got != len(want) {
				return fmt.Errorf("graph: CountOut(%d, %d) = %d, row filter gives %d", v, l, got, len(want))
			}
			if got, want := g.InByLabel(v, l), filter(g.In(v), l); !same(got, want) {
				return fmt.Errorf("graph: InByLabel(%d, %d) = %v, row filter gives %v", v, l, got, want)
			}
			// Probe every real target plus both neighbours of each, so
			// the search inside a run is tried just below, on and just
			// above every edge it holds.
			for _, e := range want {
				for _, to := range []NodeID{e.To - 1, e.To, e.To + 1} {
					if to < 0 || int(to) >= g.NumNodes() {
						continue
					}
					linear := false
					for _, o := range g.Out(v) {
						if o == (Edge{To: to, Label: l}) {
							linear = true
						}
					}
					if got := g.HasEdge(v, to, l); got != linear {
						return fmt.Errorf("graph: HasEdge(%d, %d, %d) = %v, linear scan gives %v", v, to, l, got, linear)
					}
				}
			}
			if len(want) == 0 && vi+1 < g.NumNodes() && g.HasEdge(v, v+1, l) {
				return fmt.Errorf("graph: HasEdge(%d, %d, %d) holds on a label the row does not carry", v, v+1, l)
			}
		}
	}
	return nil
}
