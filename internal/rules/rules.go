// Package rules implements quantified graph association rules (QGARs, §6):
// rules Q1(xo) ⇒ Q2(xo) over QGPs, their topological support, the
// LCWA-based confidence of Appendix C, quantified entity identification
// (QEI), and a seed-and-extend miner in the style of Exp-3.
package rules

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
)

// QGAR is a quantified graph association rule R(xo): Q1(xo) ⇒ Q2(xo).
type QGAR struct {
	Name       string
	Antecedent *core.Pattern // Q1
	Consequent *core.Pattern // Q2
}

// New validates and builds a rule. Per §6, both patterns must be
// connected, nonempty (at least one edge), anchored at the same focus
// (same name and label), and must not share an edge.
func New(name string, q1, q2 *core.Pattern) (*QGAR, error) {
	if err := q1.Validate(); err != nil {
		return nil, fmt.Errorf("rules: antecedent: %w", err)
	}
	if err := q2.Validate(); err != nil {
		return nil, fmt.Errorf("rules: consequent: %w", err)
	}
	if len(q1.Edges) == 0 || len(q2.Edges) == 0 {
		return nil, fmt.Errorf("rules: antecedent and consequent must each have at least one edge")
	}
	f1, f2 := q1.Nodes[q1.Focus], q2.Nodes[q2.Focus]
	if f1.Name != f2.Name || f1.Label != f2.Label {
		return nil, fmt.Errorf("rules: focus mismatch: %s:%s vs %s:%s", f1.Name, f1.Label, f2.Name, f2.Label)
	}
	seen := make(map[string]bool)
	for _, e := range q1.Edges {
		seen[edgeKey(q1, e)] = true
	}
	for _, e := range q2.Edges {
		if seen[edgeKey(q2, e)] {
			return nil, fmt.Errorf("rules: antecedent and consequent share edge %s", edgeKey(q2, e))
		}
	}
	return &QGAR{Name: name, Antecedent: q1, Consequent: q2}, nil
}

func edgeKey(p *core.Pattern, e core.PEdge) string {
	return p.Nodes[e.From].Name + "\x00" + e.Label + "\x00" + p.Nodes[e.To].Name
}

// Evaluation is the outcome of applying a rule to a graph.
type Evaluation struct {
	Matches    []graph.NodeID // R(xo, G) = Q1(xo, G) ∩ Q2(xo, G)
	Support    int            // supp(R, G) = |R(xo, G)| (Lemma 10)
	XoSize     int            // |Q1(xo, G) ∩ Xo| under LCWA
	Confidence float64        // |R| / XoSize; 0 when XoSize is 0
	// Lift compares the rule's confidence to the base rate of the
	// consequent over all LCWA-trustworthy focus candidates: lift ≈ 1
	// marks a rule that merely restates a global property of the graph,
	// lift > 1 a genuine correlation. (An addition over the paper, used
	// by the miner to rank away tautologies.)
	Lift    float64
	Metrics match.Metrics
}

// Evaluate applies the rule with sequential QMatch.
func (r *QGAR) Evaluate(g *graph.Graph) (*Evaluation, error) {
	return r.evaluate(g, nil)
}

// evaluate is Evaluate taking each pattern's answers from memo.
func (r *QGAR) evaluate(g *graph.Graph, memo answerMemo) (*Evaluation, error) {
	a, err := memo.qmatch(g, r.Antecedent)
	if err != nil {
		return nil, err
	}
	c, err := memo.qmatch(g, r.Consequent)
	if err != nil {
		return nil, err
	}
	ev := r.assemble(g, a.Matches, c.Matches)
	ev.Metrics.Add(a.Metrics)
	ev.Metrics.Add(c.Metrics)
	return ev, nil
}

// answerMemo holds QMatch's result per pattern, keyed by the pattern's
// canonical text, over one graph: a miner's rules share antecedents and
// consequents, and each distinct pattern is matched once. A nil memo
// matches every time.
type answerMemo map[string]*match.Result

func (m answerMemo) qmatch(g *graph.Graph, q *core.Pattern) (*match.Result, error) {
	if m == nil {
		return match.QMatch(g, q, nil)
	}
	key := q.String()
	if res, ok := m[key]; ok {
		return res, nil
	}
	res, err := match.QMatch(g, q, nil)
	if err != nil {
		return nil, err
	}
	m[key] = res
	return res, nil
}

// assemble computes matches, support and LCWA confidence from the two
// answer sets.
func (r *QGAR) assemble(g *graph.Graph, ant, cons []graph.NodeID) *Evaluation {
	inCons := make(map[graph.NodeID]bool, len(cons))
	for _, v := range cons {
		inCons[v] = true
	}
	ev := &Evaluation{}
	for _, v := range ant {
		if inCons[v] {
			ev.Matches = append(ev.Matches, v)
		}
	}
	ev.Support = len(ev.Matches)

	// Xo (Appendix C): candidates with at least one edge of the required
	// type for every consequent edge leaving the focus — under the local
	// closed-world assumption these are the trustworthy negative examples.
	// Negated consequent edges contribute their type too: a node with no
	// recorded edges of that type carries no evidence either way.
	var focusLabels []graph.LabelID
	for _, e := range r.Consequent.Edges {
		if e.From == r.Consequent.Focus {
			focusLabels = append(focusLabels, g.LookupLabel(e.Label))
		}
	}
	for _, v := range ant {
		inXo := true
		for _, l := range focusLabels {
			if l == graph.NoLabel || g.CountOut(v, l) == 0 {
				inXo = false
				break
			}
		}
		if inXo || inCons[v] {
			// Positive examples always count toward the denominator.
			ev.XoSize++
		}
	}
	if ev.XoSize > 0 {
		ev.Confidence = float64(ev.Support) / float64(ev.XoSize)
	}

	// Base rate: among ALL focus-labeled nodes that pass the LCWA edge-type
	// test, how many match the consequent?
	inAnyCons := 0
	candidates := 0
	for _, v := range g.NodesByLabelName(r.Consequent.Nodes[r.Consequent.Focus].Label) {
		trustworthy := true
		for _, l := range focusLabels {
			if l == graph.NoLabel || g.CountOut(v, l) == 0 {
				trustworthy = false
				break
			}
		}
		if !trustworthy && !inCons[v] {
			continue
		}
		candidates++
		if inCons[v] {
			inAnyCons++
		}
	}
	if candidates > 0 && inAnyCons > 0 && ev.Confidence > 0 {
		base := float64(inAnyCons) / float64(candidates)
		ev.Lift = ev.Confidence / base
	}
	return ev
}

// Identify solves the QEI problem: the entities identified by R with
// confidence at least eta, i.e. R(xo, G) when conf(R, G) ≥ eta and the
// empty set otherwise.
func (r *QGAR) Identify(g *graph.Graph, eta float64) ([]graph.NodeID, error) {
	ev, err := r.Evaluate(g)
	if err != nil {
		return nil, err
	}
	if ev.Confidence < eta {
		return nil, nil
	}
	return ev.Matches, nil
}

// Combined merges the antecedent and consequent into the single QGP the
// paper says R can be treated as (§6): nodes are unified by name (the
// focus and any shared landmarks like album y in R1), edges concatenated.
// Note the paper *evaluates* R as the intersection of the two answer sets
// — which this library follows in Evaluate — so Combined is a stricter
// view: its matches bind shared non-focus nodes to the same graph nodes.
// Combined returns an error when the merged pattern is not a valid QGP
// (e.g. the merge exceeds the quantifier-per-path budget).
func (r *QGAR) Combined() (*core.Pattern, error) {
	out := core.NewPattern()
	for _, n := range r.Antecedent.Nodes {
		out.AddNode(n.Name, n.Label)
	}
	out.Focus = r.Antecedent.Focus
	out.Edges = append(out.Edges, r.Antecedent.Edges...)

	for _, n := range r.Consequent.Nodes {
		if idx, ok := out.NodeIndex(n.Name); ok {
			if out.Nodes[idx].Label != n.Label {
				return nil, fmt.Errorf("rules: node %q has label %q in Q1 but %q in Q2",
					n.Name, out.Nodes[idx].Label, n.Label)
			}
			continue
		}
		out.AddNode(n.Name, n.Label)
	}
	for _, e := range r.Consequent.Edges {
		from, _ := out.NodeIndex(r.Consequent.Nodes[e.From].Name)
		to, _ := out.NodeIndex(r.Consequent.Nodes[e.To].Name)
		out.Edges = append(out.Edges, core.PEdge{From: from, To: to, Label: e.Label, Q: e.Q})
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}
