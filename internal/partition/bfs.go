package partition

import "repro/internal/graph"

// bfsScratch runs repeated bounded BFS traversals without per-call
// allocation, using version stamps for the visited set.
type bfsScratch struct {
	stamp   []uint32
	version uint32
	buf     []graph.NodeID
}

func newBFS(n int) *bfsScratch {
	return &bfsScratch{stamp: make([]uint32, n)}
}

func (b *bfsScratch) reset() {
	b.version++
	if b.version == 0 {
		for i := range b.stamp {
			b.stamp[i] = 0
		}
		b.version = 1
	}
	b.buf = b.buf[:0]
}

// insideFragment walks Nd(v) and stops at the first node u with
// home[u] != h, which it returns (-1 when Nd(v) stays inside h) together
// with the number of nodes visited (work accounting).
func (b *bfsScratch) insideFragment(g *graph.Graph, v graph.NodeID, d int, home []int, h int) (graph.NodeID, int) {
	b.reset()
	b.stamp[v] = b.version
	b.buf = append(b.buf, v)
	frontier := 0
	for hop := 0; hop < d; hop++ {
		for end := len(b.buf); frontier < end; frontier++ {
			u := b.buf[frontier]
			for _, es := range [2][]graph.Edge{g.Out(u), g.In(u)} {
				for _, e := range es {
					if b.stamp[e.To] != b.version {
						if home[e.To] != h {
							return e.To, len(b.buf)
						}
						b.stamp[e.To] = b.version
						b.buf = append(b.buf, e.To)
					}
				}
			}
		}
	}
	return -1, len(b.buf)
}

// load materializes the fragment base ∪ Nd(seeds): one multi-source BFS
// bounded at d hops (a node is within d of some seed iff it is in some
// seed's Nd), then one ascending scan of the stamps, which serve as the
// flat membership array. It returns the member nodes and |nodes| +
// |induced edges|.
func (b *bfsScratch) load(g *graph.Graph, base, seeds []graph.NodeID, d int) ([]graph.NodeID, int) {
	b.reset()
	for _, v := range seeds {
		b.stamp[v] = b.version
	}
	b.buf = append(b.buf, seeds...)
	frontier := 0
	for hop := 0; hop < d; hop++ {
		for end := len(b.buf); frontier < end; frontier++ {
			u := b.buf[frontier]
			for _, es := range [2][]graph.Edge{g.Out(u), g.In(u)} {
				for _, e := range es {
					if b.stamp[e.To] != b.version {
						b.stamp[e.To] = b.version
						b.buf = append(b.buf, e.To)
					}
				}
			}
		}
	}
	// Base nodes join only now: stamped earlier they would stop the BFS
	// from walking through them.
	for _, v := range base {
		b.stamp[v] = b.version
	}
	var nodes []graph.NodeID
	size := 0
	for v, s := range b.stamp {
		if s != b.version {
			continue
		}
		nodes = append(nodes, graph.NodeID(v))
		size++
		for _, e := range g.Out(graph.NodeID(v)) {
			if b.stamp[e.To] == b.version {
				size++
			}
		}
	}
	return nodes, size
}
