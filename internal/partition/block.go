package partition

import (
	"math/bits"

	"repro/internal/graph"
)

// blockBFS sizes the d-hop neighborhoods of up to 64 border nodes in one
// multi-source BFS (Then et al., VLDB 2014). Bit i of seen[u] says u is in
// Nd of the block's i-th source, so |Nd(v_i)| is the number of touched
// words with bit i set and |E(Nd(v_i))| the number of out-edges (a, b)
// with bit i in seen[a] & seen[b]: exact — a bit is membership. What
// BFS-adjacent border nodes share of their neighborhoods is walked and
// scanned once per block, not once per node. Scratch is O(|V|) words.
type blockBFS struct {
	seen                      []uint64 // sources that reached the node
	cur, next                 []uint64 // sources reaching it at this hop / the next
	touched, front, nextFront []graph.NodeID
	nodes, edges              laneCounter
	visits                    int // adjacency slots read: the unit the tests compare cost in
}

func newBlockBFS(n int) *blockBFS {
	return &blockBFS{seen: make([]uint64, n), cur: make([]uint64, n), next: make([]uint64, n)}
}

// sizeAll returns |Nd(v)| and |Nd(v)| + |E(Nd(v))| for every border node,
// taking them 64 at a time in the order given.
func (k *blockBFS) sizeAll(g *graph.Graph, borders []graph.NodeID, d int) (count, size []int) {
	count, size = make([]int, len(borders)), make([]int, len(borders))
	for lo := 0; lo < len(borders); lo += 64 {
		hi := min(lo+64, len(borders))
		k.block(g, borders[lo:hi], d, count[lo:hi], size[lo:hi])
	}
	return count, size
}

func (k *blockBFS) block(g *graph.Graph, srcs []graph.NodeID, d int, count, size []int) {
	for i, v := range srcs {
		k.seen[v] = 1 << i
		k.cur[v] = 1 << i
	}
	k.touched = append(k.touched[:0], srcs...)
	k.front = append(k.front[:0], srcs...)
	for hop := 0; hop < d && len(k.front) > 0; hop++ {
		for _, u := range k.front {
			from := k.cur[u]
			k.cur[u] = 0
			k.reach(g.Out(u), from)
			k.reach(g.In(u), from)
		}
		k.front, k.nextFront = k.nextFront, k.front[:0]
		k.cur, k.next = k.next, k.cur
	}
	for _, u := range k.front {
		k.cur[u] = 0
	}
	for _, a := range k.touched {
		sa := k.seen[a]
		k.nodes.add(sa)
		out := g.Out(a)
		k.visits += len(out)
		for _, e := range out {
			k.edges.add(sa & k.seen[e.To])
		}
	}
	k.nodes.drain(count)
	k.edges.drain(size)
	for i := range size {
		size[i] += count[i]
	}
	for _, u := range k.touched {
		k.seen[u] = 0
	}
}

// reach offers the sources in from to every neighbor in es; those that
// had not seen the neighbor yet reach it at the next hop.
func (k *blockBFS) reach(es []graph.Edge, from uint64) {
	k.visits += len(es)
	for _, e := range es {
		fresh := from &^ k.seen[e.To]
		if fresh == 0 {
			continue
		}
		if k.seen[e.To] == 0 {
			k.touched = append(k.touched, e.To)
		}
		k.seen[e.To] |= fresh
		if k.next[e.To] == 0 {
			k.nextFront = append(k.nextFront, e.To)
		}
		k.next[e.To] |= fresh
	}
}

// laneCounter is 64 counters stored bit-sliced: bit i of plane[j] is bit
// j of lane i's count. Added words first pass through a carry-save adder
// tree (Harley–Seal): eight reduce to the ones, twos and fours words kept
// between rounds plus one eights word, and only that ripples into the
// planes — at plane 3, an eighth as often.
type laneCounter struct {
	plane            [48]uint64 // no graph in memory has 2^48 edges
	ones, twos, four uint64
	buf              [8]uint64
	n                int
}

func (c *laneCounter) add(x uint64) {
	c.buf[c.n] = x
	c.n++
	if c.n == len(c.buf) {
		c.reduce()
	}
}

// csa adds three words lane by lane: sum is the low bit, carry the high.
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

func (c *laneCounter) reduce() {
	b := &c.buf
	var t0, t1, f0, f1, eights uint64
	t0, c.ones = csa(c.ones, b[0], b[1])
	t1, c.ones = csa(c.ones, b[2], b[3])
	f0, c.twos = csa(c.twos, t0, t1)
	t0, c.ones = csa(c.ones, b[4], b[5])
	t1, c.ones = csa(c.ones, b[6], b[7])
	f1, c.twos = csa(c.twos, t0, t1)
	eights, c.four = csa(c.four, f0, f1)
	c.ripple(3, eights)
	c.n = 0
}

func (c *laneCounter) ripple(j int, x uint64) {
	for ; x != 0; j++ {
		c.plane[j], x = c.plane[j]^x, c.plane[j]&x
	}
}

// drain writes lanes 0..len(out)-1 to out and zeroes the counter: a part
// filled buffer is zero-padded and reduced like a full one, then what the
// tree holds ripples in at its own weight.
func (c *laneCounter) drain(out []int) {
	if c.n > 0 {
		clear(c.buf[c.n:])
		c.reduce()
	}
	c.ripple(0, c.ones)
	c.ripple(1, c.twos)
	c.ripple(2, c.four)
	clear(out)
	for j, p := range c.plane {
		for p &= 1<<len(out) - 1; p != 0; p &= p - 1 {
			out[bits.TrailingZeros64(p)] += 1 << j
		}
	}
	*c = laneCounter{}
}
