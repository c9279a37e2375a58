package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/scan"
)

// PNode is a pattern node: a human-readable name (unique within the
// pattern) and a node label that graph nodes must carry.
type PNode struct {
	Name  string
	Label string
}

// PEdge is a pattern edge from node index From to node index To, carrying
// an edge label and a counting quantifier.
type PEdge struct {
	From, To int
	Label    string
	Q        Quantifier
}

// IsNegated reports whether the edge carries σ(e) = 0.
func (e PEdge) IsNegated() bool { return e.Q.IsNegation() }

// Pattern is a quantified graph pattern Q(xo) = (VQ, EQ, LQ, f) with a
// designated query focus xo. Build one with NewPattern + AddNode/AddEdge,
// or parse the DSL with Parse. Patterns are immutable once handed to the
// matching algorithms.
type Pattern struct {
	Nodes []PNode
	Edges []PEdge
	Focus int // index into Nodes

	byName map[string]int
}

// NewPattern returns an empty pattern. The first node added becomes the
// focus unless SetFocus is called.
func NewPattern() *Pattern {
	return &Pattern{Focus: -1, byName: make(map[string]int)}
}

// AddNode adds a named, labeled pattern node and returns its index. Adding
// a duplicate name panics: pattern construction errors are programming
// errors, not runtime conditions.
func (p *Pattern) AddNode(name, label string) int {
	if _, dup := p.byName[name]; dup {
		panic(fmt.Sprintf("core: duplicate pattern node %q", name))
	}
	idx := len(p.Nodes)
	p.Nodes = append(p.Nodes, PNode{Name: name, Label: label})
	p.byName[name] = idx
	if p.Focus < 0 {
		p.Focus = idx
	}
	return idx
}

// SetFocus marks the node with the given name as the query focus xo.
func (p *Pattern) SetFocus(name string) {
	idx, ok := p.byName[name]
	if !ok {
		panic(fmt.Sprintf("core: unknown focus node %q", name))
	}
	p.Focus = idx
}

// NodeIndex returns the index of the named node and whether it exists.
func (p *Pattern) NodeIndex(name string) (int, bool) {
	idx, ok := p.byName[name]
	return idx, ok
}

// AddEdge adds an edge between named nodes with an edge label and
// quantifier, returning the edge index.
func (p *Pattern) AddEdge(from, to, label string, q Quantifier) int {
	fi, ok := p.byName[from]
	if !ok {
		panic(fmt.Sprintf("core: unknown pattern node %q", from))
	}
	ti, ok := p.byName[to]
	if !ok {
		panic(fmt.Sprintf("core: unknown pattern node %q", to))
	}
	p.Edges = append(p.Edges, PEdge{From: fi, To: ti, Label: label, Q: q})
	return len(p.Edges) - 1
}

// IsPositive reports whether the pattern has no negated edges.
func (p *Pattern) IsPositive() bool { return len(p.NegatedEdges()) == 0 }

// NegatedEdges returns the indexes of edges with σ(e) = 0 (E−Q).
func (p *Pattern) NegatedEdges() []int {
	var neg []int
	for i, e := range p.Edges {
		if e.IsNegated() {
			neg = append(neg, i)
		}
	}
	return neg
}

// QuantifiedEdges returns the indexes of edges with non-existential,
// non-negated quantifiers.
func (p *Pattern) QuantifiedEdges() []int {
	var qs []int
	for i, e := range p.Edges {
		if !e.Q.IsExistential() && !e.IsNegated() {
			qs = append(qs, i)
		}
	}
	return qs
}

// clone returns a deep copy of p.
func (p *Pattern) clone() *Pattern {
	q := NewPattern()
	for _, n := range p.Nodes {
		q.AddNode(n.Name, n.Label)
	}
	q.Focus = p.Focus
	q.Edges = append([]PEdge(nil), p.Edges...)
	return q
}

// Positify returns Q+e: a copy with negated edge e changed to σ(e) ≥ 1.
// It panics if edge e is not negated.
func (p *Pattern) Positify(e int) *Pattern {
	if !p.Edges[e].IsNegated() {
		panic("core: Positify on a non-negated edge")
	}
	q := p.clone()
	q.Edges[e].Q = Exists()
	return q
}

// Pi returns Π(Q): the negation-free projection of Q. Negated edges are
// removed together with their "far" endpoint (the endpoint at greater
// undirected distance from the focus — the node that exists only to state
// the negated condition, e.g. z2 in the paper's Q3 or UK/PhD in Q5), and
// the pattern is restricted to the connected component of the focus. The
// second result maps Π(Q) node indexes back to indexes in p.
//
// The paper's prose definition ("nodes connected to xo with non-negated
// edges") is ambiguous for DAG-shaped patterns; this rule reproduces
// Figure 3 of the paper exactly on Q3, Q4 and Q5 (see DESIGN.md §2).
func (p *Pattern) Pi() (*Pattern, []int) {
	keep := p.piKeepSet()
	pi := NewPattern()
	oldToNew := make([]int, len(p.Nodes))
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	var newToOld []int
	for i, n := range p.Nodes {
		if keep[i] {
			oldToNew[i] = pi.AddNode(n.Name, n.Label)
			newToOld = append(newToOld, i)
		}
	}
	pi.Focus = oldToNew[p.Focus]
	for _, e := range p.Edges {
		if e.IsNegated() {
			continue
		}
		if keep[e.From] && keep[e.To] {
			pi.Edges = append(pi.Edges, PEdge{
				From: oldToNew[e.From], To: oldToNew[e.To], Label: e.Label, Q: e.Q,
			})
		}
	}
	return pi, newToOld
}

// PiPlus returns Π(Q+e) for negated edge e: the negation-free projection
// of the positified pattern, with the index mapping back to p.
func (p *Pattern) PiPlus(e int) (*Pattern, []int) {
	return p.Positify(e).Pi()
}

// piKeepSet computes the node set of Π(Q): all nodes except the far
// endpoints of negated edges, restricted to the focus component after
// negated edges and far endpoints are removed.
func (p *Pattern) piKeepSet() []bool {
	dist := p.undirectedDistances()
	tainted := make([]bool, len(p.Nodes))
	for _, e := range p.Edges {
		if !e.IsNegated() {
			continue
		}
		far := e.To
		if dist[e.From] > dist[e.To] {
			far = e.From
		}
		if far != p.Focus {
			tainted[far] = true
		}
	}
	adj := make([][]int, len(p.Nodes))
	for _, e := range p.Edges {
		if e.IsNegated() || tainted[e.From] || tainted[e.To] {
			continue
		}
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	keep := make([]bool, len(p.Nodes))
	stack := []int{p.Focus}
	keep[p.Focus] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !keep[v] {
				keep[v] = true
				stack = append(stack, v)
			}
		}
	}
	return keep
}

// undirectedDistances returns BFS hop distances from the focus over all
// edges (negated included), ignoring direction. Unreachable nodes get a
// distance larger than any reachable one.
func (p *Pattern) undirectedDistances() []int {
	adj := make([][]int, len(p.Nodes))
	for _, e := range p.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	dist := make([]int, len(p.Nodes))
	for i := range dist {
		dist[i] = len(p.Nodes) + 1
	}
	dist[p.Focus] = 0
	queue := []int{p.Focus}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] > dist[u]+1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// RequiredHops returns the partition radius a pattern needs for
// fragment-local evaluation to be exact (Lemma 9(1)): the largest need over
// Π(Q) and every Π(Q+e), where a sub-pattern needs its own radius, plus one
// extra hop beyond any ratio-quantified edge's source (ratio denominators
// |Me(v)| count all children of v in G, so those children must be
// materialized even when they match nothing).
func RequiredHops(q *Pattern) int {
	pi, _ := q.Pi()
	need := pi.hops()
	for _, ei := range q.NegatedEdges() {
		pp, _ := q.PiPlus(ei)
		need = max(need, pp.hops())
	}
	return need
}

// hops is what RequiredHops needs of one negation-free projection (whose
// nodes all reach the focus): max(radius, 1 + distance of each ratio
// edge's source).
func (p *Pattern) hops() int {
	dist := p.undirectedDistances()
	need := slices.Max(dist)
	for _, e := range p.Edges {
		if e.Q.IsRatio() {
			need = max(need, dist[e.From]+1)
		}
	}
	return need
}

// Connected reports whether the pattern is connected, treating edges as
// undirected (negated edges included; a QGP must be connected as a whole).
func (p *Pattern) Connected() bool {
	if len(p.Nodes) == 0 {
		return false
	}
	adj := make([][]int, len(p.Nodes))
	for _, e := range p.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := make([]bool, len(p.Nodes))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == len(p.Nodes)
}

// String renders the pattern in the DSL accepted by Parse.
func (p *Pattern) String() string {
	var b strings.Builder
	b.WriteString("qgp\n")
	for i, n := range p.Nodes {
		fmt.Fprintf(&b, "n %s %s", scan.Quote(n.Name), scan.Quote(n.Label))
		if i == p.Focus {
			b.WriteString(" *")
		}
		b.WriteByte('\n')
	}
	for _, e := range p.Edges {
		fmt.Fprintf(&b, "e %s %s %s", scan.Quote(p.Nodes[e.From].Name), scan.Quote(p.Nodes[e.To].Name), scan.Quote(e.Label))
		if !e.Q.IsExistential() {
			fmt.Fprintf(&b, " %s", e.Q)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
