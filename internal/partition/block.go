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
//
// The hops before the last push from the frontier. The last one needs no
// next frontier, so when its frontier's adjacency is a large share of the
// graph's it is pulled instead (Beamer, Asanović, Patterson, SC 2012):
// fin[x] = seen[x] | OR seen[y] over x's neighbours, branch-free over
// every node, which is exact because a source that reached y within d-1
// hops reaches x within d.
type blockBFS struct {
	seen                      []uint64 // sources that reached the node
	cur, next                 []uint64 // sources reaching it at this hop / the next
	fin                       []uint64 // seen after a pulled last hop
	touched, front, nextFront []graph.NodeID
	nodes, edges              laneCounter
	visits                    int // adjacency slots read: the unit the tests compare cost in
	last                      direction
	pushed, pulled            int // last hops taken each way
}

// direction picks how the last hop runs: auto by the frontier's
// adjacency volume (DPar), or forced either way (tests).
type direction int

const (
	auto direction = iota
	push
	pull
)

// pullShare is the rule for the last hop: pull it when its frontier's
// adjacency volume is at least 1/pullShare of the graph's (2|E| slots).
// A pushed slot costs a test and, for a fresh bit, two scattered writes
// and a list append; a pulled slot costs an OR, and the count pass then
// walks nodes in id order rather than discovery order. Timed per block,
// each direction forced, best of three, two sessions (2-vCPU VM, Go 1.24,
// DPar's borders at 2 and 4 workers), pulled/pushed time by the
// frontier's share of 2|E|:
//   - social, 6 000 persons (the benchmark's graph), d=2: 0.46–0.50 at
//     1/1, 0.51–0.55 at 1/2, 0.60–0.63 at 1/3, 0.63–0.68 at 1/4; the
//     whole kernel 231–257 → 133–139 ms. At d=1 every share is under
//     1/20 and pulling costs 2.1–2.3×.
//   - the 46×45 grid: shares of 1/10 and under at d ≤ 3, where pulling
//     costs 1.7–4.5×; it never pulls.
//   - smallworld and knowledge graphs cross over between 1/3 and 1/8.
const pullShare = 4

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
	member := k.seen
	for hop := 0; hop < d && len(k.front) > 0; hop++ {
		if hop == d-1 && k.pulls(g) {
			k.pull(g)
			member = k.fin
			break
		}
		k.push(g)
	}
	for _, u := range k.front {
		k.cur[u] = 0
	}
	// Count each reached node, and each out-edge with both ends reached,
	// to the sources member (seen, or fin after a pulled hop) names.
	for _, a := range k.touched {
		sa := member[a]
		k.nodes.add(sa)
		out := g.Out(a)
		k.visits += len(out)
		if len(out) >= 8 {
			out = k.edges.addGroups(sa, out, member)
		}
		for _, e := range out {
			k.edges.add(sa & member[e.To])
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

// pulls reports whether the last hop is pulled, and tallies the choice.
func (k *blockBFS) pulls(g *graph.Graph) bool {
	p := k.last == pull
	if k.last == auto {
		volume := 0
		for _, u := range k.front {
			volume += len(g.Out(u)) + len(g.In(u))
		}
		p = volume*pullShare >= 2*g.NumEdges()
	}
	if p {
		k.pulled++
	} else {
		k.pushed++
	}
	return p
}

// push walks one hop out of the frontier.
func (k *blockBFS) push(g *graph.Graph) {
	for _, u := range k.front {
		from := k.cur[u]
		k.cur[u] = 0
		k.reach(g.Out(u), from)
		k.reach(g.In(u), from)
	}
	k.front, k.nextFront = k.nextFront, k.front[:0]
	k.cur, k.next = k.next, k.cur
}

// pull computes fin, seen one hop further, for every node, and lists the
// nodes it reaches in touched, in id order: they include every node seen
// so far, so clearing seen over them stays exact. Every word of fin is
// written, so it needs no clearing between blocks.
func (k *blockBFS) pull(g *graph.Graph) {
	if k.fin == nil {
		k.fin = make([]uint64, len(k.seen))
	}
	seen := k.seen
	k.touched = k.touched[:0]
	for x := range k.fin {
		w := seen[x]
		out, in := g.Out(graph.NodeID(x)), g.In(graph.NodeID(x))
		for _, e := range out {
			w |= seen[e.To]
		}
		for _, e := range in {
			w |= seen[e.To]
		}
		k.fin[x] = w
		k.visits += len(out) + len(in)
		if w != 0 {
			k.touched = append(k.touched, graph.NodeID(x))
		}
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

// addGroups adds sa & member[e.To] for the edges e of row's whole groups
// of eight, through the adder tree held in locals, and returns the rest of
// the row. The buffer may hold words meanwhile: the order words are added
// in does not change the sums.
func (c *laneCounter) addGroups(sa uint64, row []graph.Edge, member []uint64) []graph.Edge {
	ones, twos, four := c.ones, c.twos, c.four
	for ; len(row) >= 8; row = row[8:] {
		r := row[:8]
		var t0, t1, f0, f1, eights uint64
		t0, ones = csa(ones, sa&member[r[0].To], sa&member[r[1].To])
		t1, ones = csa(ones, sa&member[r[2].To], sa&member[r[3].To])
		f0, twos = csa(twos, t0, t1)
		t0, ones = csa(ones, sa&member[r[4].To], sa&member[r[5].To])
		t1, ones = csa(ones, sa&member[r[6].To], sa&member[r[7].To])
		f1, twos = csa(twos, t0, t1)
		eights, four = csa(four, f0, f1)
		if eights != 0 {
			c.ripple(3, eights)
		}
	}
	c.ones, c.twos, c.four = ones, twos, four
	return row
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
