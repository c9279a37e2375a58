package dynamic

import (
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
)

// counts keeps one positive pattern — Π(Q) or a Π(Q+e) — as verdicts on
// every node of a graph, so that a batch re-judges the nodes its edits
// reach instead of searching again: each quantifier is an aggregate folded
// into counters (the FAQ reading of Abo Khamis, Ngo and Rudra), and a batch
// costs its edits plus degree × flips (Berkholz, Keppeler and
// Schweikardt's bound for counting queries under updates).
//
// The pattern is countable (newCounts). Orient each pattern edge e from its
// parent u to its child u′, in tree order from the focus, and let N_e(w) be
// w's neighbours over e's label in the row e reads: the out-row if e points
// away from the focus, the in-row otherwise. Over w′ ∈ N_e(w) with w′ ≠ w:
//
//	emb(u, w)    w has u's label, and every child edge e has cntE_e(w) ≥ 1
//	cntE_e(w)    the number of w′ with emb(u′, w′)
//	valid(u, w)  emb(u, w), every child edge e has cntV_e(w) ≥ 1, and every
//	             quantified one f_e(cntE_e(w), CountOut(w, l_e))
//	cntV_e(w)    the number of w′ with valid(u′, w′)
//
// A focus candidate v answers the pattern iff valid(xo, v). In this class
// the one injectivity constraint an isomorphism meets is that a child's
// image is not its parent's, so the images of sibling subtrees combine
// freely: every image w that some isomorphism anchored at v realizes has
// |Me(v, w, e)| = cntE_e(w), and valid(xo, v) says some isomorphism's
// images all meet their quantifiers — QMatch's flat counting
// (match/eval.go), whose counts run over dual simulation and are therefore
// existential too.
//
// A count is re-counted from the row whenever one of its inputs moves, so
// only the two verdicts the counts feed are kept: one byte per pattern node
// and graph node.
type counts struct {
	p     *core.Pattern
	order []int   // pattern nodes, breadth first from the focus
	up    []int   // per pattern node, the edge to its parent; -1 at the focus
	kids  [][]int // per pattern node, the edges to its children
	// parent and child are, per pattern edge, its endpoint nearer to the
	// focus and the other one.
	parent, child []int

	// The pattern's labels in the graph's ids: NoLabel until it interns one.
	nodeLabel, edgeLabel []graph.LabelID
	state                [][]uint8        // per pattern node, per graph node: embedded | valid
	dirty                [][]graph.NodeID // per pattern node: the graph nodes to re-judge
}

const (
	embedded uint8 = 1 << iota // emb(u, w)
	valid                      // valid(u, w), which implies emb(u, w)
)

// newCounts returns the counts of the positive pattern p, or nil when p is
// not countable: it must be a tree (connected with |E| = |V|−1, hence no two
// edges on one pair of nodes), any two of its nodes that share a label must
// be adjacent, and every non-existential edge must point away from the
// focus.
func newCounts(p *core.Pattern) *counts {
	n := len(p.Nodes)
	if len(p.Edges) != n-1 {
		return nil
	}
	c := &counts{
		p: p, order: []int{p.Focus}, up: make([]int, n), kids: make([][]int, n),
		parent: make([]int, len(p.Edges)), child: make([]int, len(p.Edges)),
		nodeLabel: make([]graph.LabelID, n), edgeLabel: make([]graph.LabelID, len(p.Edges)),
		state: make([][]uint8, n), dirty: make([][]graph.NodeID, n),
	}
	for u := range c.up {
		c.up[u], c.nodeLabel[u] = -1, graph.NoLabel
	}
	reached := make([]bool, n)
	reached[p.Focus] = true
	for i := 0; i < len(c.order); i++ {
		u := c.order[i]
		for ei, e := range p.Edges {
			w := e.To
			if u == e.To {
				w = e.From
			} else if u != e.From {
				continue
			}
			if reached[w] {
				continue
			}
			reached[w] = true
			c.order = append(c.order, w)
			c.up[w], c.parent[ei], c.child[ei] = ei, u, w
			c.kids[u] = append(c.kids[u], ei)
		}
	}
	if len(c.order) != n {
		return nil
	}
	for ei, e := range p.Edges {
		if !e.Q.IsExistential() && e.From != c.parent[ei] {
			return nil
		}
		c.edgeLabel[ei] = graph.NoLabel
	}
	childOf := func(w, u int) bool { return c.up[w] >= 0 && c.parent[c.up[w]] == u }
	for u := range p.Nodes {
		for w := u + 1; w < n; w++ {
			if p.Nodes[u].Label == p.Nodes[w].Label && !childOf(w, u) && !childOf(u, w) {
				return nil
			}
		}
	}
	return c
}

// resolve brings the counts to g: it looks up the labels g had not
// interned at the last look — a label a batch interns first is on no node
// and no edge before that batch — and gives g's new nodes verdicts, zero
// until judged.
func (c *counts) resolve(g *graph.Graph) {
	for u, l := range c.nodeLabel {
		if l == graph.NoLabel {
			c.nodeLabel[u] = g.LookupLabel(c.p.Nodes[u].Label)
		}
	}
	for ei, l := range c.edgeLabel {
		if l == graph.NoLabel {
			c.edgeLabel[ei] = g.LookupLabel(c.p.Edges[ei].Label)
		}
	}
	for u := range c.state {
		if k := g.NumNodes() - len(c.state[u]); k > 0 {
			c.state[u] = append(c.state[u], make([]uint8, k)...)
		}
	}
}

// build judges every node of g, children before parents.
func (c *counts) build(g *graph.Graph) {
	c.resolve(g)
	for i := len(c.order) - 1; i >= 0; i-- {
		u := c.order[i]
		if c.nodeLabel[u] == graph.NoLabel {
			continue
		}
		for _, w := range g.NodesByLabel(c.nodeLabel[u]) {
			c.state[u][w] = c.judge(g, u, w)
		}
	}
}

// advance carries the verdicts over a batch already applied to g, whose net
// edge edits are edits (graph.OldView.Edits) and whose new nodes are those
// from born on. A new node is judged for every pattern node of its label,
// and each edit's parent-side endpoint for every pattern edge of its label;
// a node whose verdicts move queues its parent-side neighbours. Pattern
// nodes are settled children first, each from the final rows, so a new
// edge is counted once. It returns the focus candidates it re-judged,
// ascending, in a slice that is good until the next advance.
func (c *counts) advance(g *graph.Graph, edits []graph.EdgeEdit, born graph.NodeID) []graph.NodeID {
	c.resolve(g)
	for w := born; int(w) < g.NumNodes(); w++ {
		for u := range c.p.Nodes {
			c.mark(g, u, w)
		}
	}
	for _, ed := range edits {
		for ei, l := range c.edgeLabel {
			switch {
			case l != ed.Label:
			case c.p.Edges[ei].From == c.parent[ei]:
				c.mark(g, c.parent[ei], ed.From)
			default:
				c.mark(g, c.parent[ei], ed.To)
			}
		}
	}
	var judged []graph.NodeID
	for i := len(c.order) - 1; i >= 0; i-- {
		u := c.order[i]
		slices.Sort(c.dirty[u])
		judged = slices.Compact(c.dirty[u])
		c.dirty[u] = judged[:0]
		for _, w := range judged {
			s := c.judge(g, u, w)
			if s == c.state[u][w] {
				continue
			}
			c.state[u][w] = s
			if ei := c.up[u]; ei >= 0 {
				for _, x := range c.row(g, ei, w, true) {
					if x.To != w {
						c.mark(g, c.parent[ei], x.To)
					}
				}
			}
		}
	}
	return judged // the focus's: order begins with it
}

// mark queues w for re-judging as an image of u, if it carries u's label.
func (c *counts) mark(g *graph.Graph, u int, w graph.NodeID) {
	if g.NodeLabel(w) == c.nodeLabel[u] {
		c.dirty[u] = append(c.dirty[u], w)
	}
}

// judge re-counts w as an image of u from its rows and returns its verdicts.
func (c *counts) judge(g *graph.Graph, u int, w graph.NodeID) uint8 {
	if g.NodeLabel(w) != c.nodeLabel[u] {
		return 0
	}
	s := embedded | valid
	for _, ei := range c.kids[u] {
		row, below := c.row(g, ei, w, false), c.state[c.child[ei]]
		cntE, cntV := 0, 0
		for _, x := range row {
			if b := below[x.To]; b != 0 && x.To != w {
				cntE++
				if b&valid != 0 {
					cntV++
				}
			}
		}
		if cntE == 0 {
			return 0
		}
		// A quantified edge points away from the focus, so its row is all
		// of w's out-edges with its label; an existential edge asks for one.
		if cntV == 0 || !c.p.Edges[ei].Q.Satisfied(cntE, len(row)) {
			s = embedded
		}
	}
	return s
}

// row returns N_e(w) for pattern edge ei with w as the parent's image, or,
// with back set, the row listing the parent-side neighbours of w as the
// child's image.
func (c *counts) row(g *graph.Graph, ei int, w graph.NodeID, back bool) []graph.Edge {
	if (c.p.Edges[ei].From == c.parent[ei]) != back {
		return g.OutByLabel(w, c.edgeLabel[ei])
	}
	return g.InByLabel(w, c.edgeLabel[ei])
}
