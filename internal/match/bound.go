package match

import (
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simulation"
)

// Bound is a Prepared bound to one graph at one version: what evaluation
// derives from the pattern and the graph's state but not from a run's
// engine or options. Labels are resolved when binding, and with them each
// positive pattern's matching order, ranked by the graph's label-class
// sizes. Its candidate sets — the O(|Q|·|G|) dual simulation every engine
// filters by — are built by the first Run of any engine, and its
// acceptance sets by the first Run of an engine that prunes by quantifiers
// (QMatch, QMatchN); every later Run reads them, whatever its engine,
// FocusRestrict or budget. A scoped re-verification over built sets
// allocates nothing sized by |V|.
//
// A Bound follows its graph by Advance, which every Run calls first, at a
// cost that depends on what the batches since edited, as the graph's log
// names them: a standing watch that re-verifies a few candidates per batch
// keeps one Bound for its lifetime. Runs and Advances may be concurrent;
// the graph write that moves the version needs them excluded.
type Bound struct {
	prep *Prepared
	g    *graph.Graph

	// mu orders concurrent Runs' lazy builds and catch-ups.
	mu      sync.Mutex
	version graph.Version   // the graph version labels and sets are valid at
	pos     []boundPositive // Π(Q), then Π(Q+e) per negated edge, as in prep
}

// boundPositive is one positive pattern's share of a Bound.
type boundPositive struct {
	*positive

	edgeLabel []graph.LabelID // per pattern edge
	nodeLabel []graph.LabelID // per pattern node
	ord       matchOrder      // ranked by this version's class sizes (rank)
	// unlabelled: the graph has not interned one of the pattern's labels, or
	// no node carries one of its node labels — no answer at this version.
	unlabelled bool

	// cand[u] over-approximates the stratified-isomorphism images of u:
	// plain dual simulation, which every engine reads. accept[u] ⊆ cand[u]
	// keeps the candidates that can appear in a quantifier-valid match
	// (Lemma 13), which only the engines that prune by quantifiers read.
	// Each is nil until a Run builds it; Advance carries what was built.
	// Read-only between Advances.
	cand, accept []*bitset.Set
	// vacant says a candidate set ran empty: then every set is empty, the
	// exact fixpoint, no engine finds an answer, and Advance repairs them
	// from there.
	vacant bool
	// accepted is the size of accept[focus], kept up to date by whoever
	// edits the set so that the verdict reads no set over every node.
	accepted int
	// pruned is the threshold verdict over built acceptance sets: no focus
	// candidate is accepted, or Lemma 12 rules every match out. Only the
	// engines that prune by quantifiers read it. The sets are kept, so
	// Advance repairs them like any others.
	pruned bool
	// origin is what the next run to read the sets reports in its profile:
	// "built" or "repaired" once after the work, "hit" from then on.
	origin string
}

// Bind binds the prepared pattern to g at its current version. It costs
// O(|Q|): the sets are built by the first Run that needs them.
func (p *Prepared) Bind(g *graph.Graph) *Bound {
	b := &Bound{prep: p, g: g, pos: make([]boundPositive, 1+len(p.neg))}
	b.pos[0].positive, b.pos[0].ord = p.pi, p.pi.flat
	slab := len(p.pi.p.Edges) + len(p.pi.p.Nodes)
	for i, pp := range p.neg {
		b.pos[i+1].positive, b.pos[i+1].ord = pp, pp.flat
		slab += len(pp.p.Edges) + len(pp.p.Nodes)
	}
	labels := make([]graph.LabelID, slab)
	for i := range b.pos {
		bp := &b.pos[i]
		ne, nn := len(bp.p.Edges), len(bp.p.Nodes)
		bp.edgeLabel, bp.nodeLabel, labels = labels[:ne:ne], labels[ne:ne+nn:ne+nn], labels[ne+nn:]
	}
	b.version = g.Version()
	for i := range b.pos {
		b.pos[i].resolve(g)
	}
	return b
}

// resolve looks the pattern's labels up in g — a later version may intern
// one that was absent — and ranks the matching order by their class sizes.
func (bp *boundPositive) resolve(g *graph.Graph) {
	bp.unlabelled = false
	for i, e := range bp.p.Edges {
		if bp.edgeLabel[i] = g.LookupLabel(e.Label); bp.edgeLabel[i] == graph.NoLabel {
			bp.unlabelled = true
		}
	}
	var buf [16]int
	size := buf[:]
	if len(bp.p.Nodes) > len(buf) {
		size = make([]int, len(bp.p.Nodes))
	}
	size = size[:len(bp.p.Nodes)]
	for u, n := range bp.p.Nodes {
		bp.nodeLabel[u] = g.LookupLabel(n.Label)
		if size[u] = len(g.NodesByLabel(bp.nodeLabel[u])); size[u] == 0 {
			bp.unlabelled = true
		}
	}
	bp.ord = bp.ordered(size, &bp.ord)
}

func (bp *boundPositive) drop() {
	bp.cand, bp.accept, bp.vacant, bp.pruned = nil, nil, false, false
}

// Outcome says what Advance, and the Run after it, take: nothing, where no
// positive holds sets and none's labels came since (Hit); a build, where
// some positive's sets were dropped or its labels came (Built); else a
// repair over the graph's log (Repaired).
type Outcome int

const (
	Hit Outcome = iota
	Repaired
	Built
)

// Advance carries the bound to the graph's current version. Where the
// graph's log reaches back to the bound's version (graph.EditsSince), the
// sets built are repaired over the edits it holds, at a cost that depends
// on them, not on |G| (simulation.Repair: exactly the sets a fresh bind
// computes, from all-empty sets too); acceptance sets, where built, are
// re-judged around what that changed, and the verdicts taken again: a
// Bound whose pattern had no answer is carried like any other. Sets that
// outgrew the graph — it lost nodes since, which only a Rollback does —
// are dropped, as is every set where the log does not reach back: a stale
// bound costs a rebuild, never a wrong answer.
func (b *Bound) Advance() Outcome {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.g.Version() == b.version {
		return Hit
	}
	edits, ok := b.g.EditsSince(b.version)
	b.version = b.g.Version()
	out := Hit
	for i := range b.pos {
		bp := &b.pos[i]
		unlabelled := bp.unlabelled
		bp.resolve(b.g)
		switch {
		case bp.cand == nil:
			if unlabelled && !bp.unlabelled {
				out = Built // its label came: the next Run builds its sets
			}
		case !ok || bp.cand[0].Len() > b.g.NumNodes():
			bp.drop()
			out = Built
		default:
			out = max(out, Repaired)
			changed, ok := simulation.Repair(b.g, bp.p, bp.cand, edits, !bp.vacant)
			if bp.accept != nil {
				switch {
				case ok:
					bp.reaccept(b.g, edits, changed)
				case !bp.vacant:
					for _, set := range bp.accept {
						set.Clear()
					}
					bp.accepted = 0
				}
				bp.prune()
			}
			bp.vacant = !ok
			bp.origin = "repaired"
		}
	}
	return out
}

// sets returns the candidate and acceptance sets engine e reads of bp —
// the acceptance sets are the candidate sets for an engine that does not
// prune by quantifiers — building what e needs and no Run built yet at
// this version, and what to report about them. none is e's verdict that
// the pattern has no answer.
func (b *Bound) sets(bp *boundPositive, e Engine) (cand, accept []*bitset.Set, none bool, origin string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bp.cand == nil {
		var ok bool
		bp.cand, ok = simulation.Candidates(b.g, bp.p, false)
		bp.vacant = !ok
		bp.origin = "built"
	}
	cand, accept, none = bp.cand, bp.cand, bp.vacant
	if e&quantFilter != 0 {
		if bp.accept == nil {
			bp.accept = bp.acceptanceFilter(b.g)
			bp.accepted = bp.accept[bp.p.Focus].Count()
			bp.prune()
			bp.origin = "built"
		}
		accept, none = bp.accept, bp.vacant || bp.pruned
	}
	origin, bp.origin = bp.origin, "hit"
	return cand, accept, none, origin
}

// prune takes the threshold verdict over the acceptance sets. It reads
// the sets only as far as the thresholds need.
func (bp *boundPositive) prune() {
	if bp.pruned = bp.accepted == 0; bp.pruned {
		return
	}
	// Global pruning rule (Lemma 12): the focus has a match only if every
	// pattern node u′ has at least pm candidates, where pm is the largest
	// numeric GE threshold over u′'s incoming quantified edges — a match of
	// u needs that many distinct children matching u′.
	for _, ei := range bp.quant {
		e := bp.p.Edges[ei]
		if !e.Q.IsRatio() && e.Q.Op() == core.GE && !bp.cand[e.To].AtLeast(e.Q.N()) {
			bp.pruned = true
			return
		}
	}
}

// acceptanceFilter computes accept[u] ⊆ cand[u]: candidates whose viable
// child counts (within cand, which is stratified-sound) can still satisfy
// every quantified out-edge threshold. A single pass suffices: thresholds
// are judged against cand-based upper bounds, which do not shrink.
func (bp *boundPositive) acceptanceFilter(g *graph.Graph) []*bitset.Set {
	accept := make([]*bitset.Set, len(bp.p.Nodes))
	for u := range bp.p.Nodes {
		accept[u] = bp.cand[u].Clone()
	}
	for _, ei := range bp.quant {
		from := accept[bp.p.Edges[ei].From]
		var removed []int
		from.ForEach(func(vi int) bool {
			if !bp.viable(g, ei, graph.NodeID(vi)) {
				removed = append(removed, vi)
			}
			return true
		})
		for _, vi := range removed {
			from.Remove(vi)
		}
	}
	return accept
}

// viable reports whether v, as the image of quantified edge ei's source,
// has enough children in the target's candidate set to meet the edge's
// threshold.
func (bp *boundPositive) viable(g *graph.Graph, ei int, v graph.NodeID) bool {
	e := bp.p.Edges[ei]
	children := g.OutByLabel(v, bp.edgeLabel[ei])
	need, ok := e.Q.Threshold(len(children))
	if !ok {
		return false
	}
	to := bp.cand[e.To]
	upper := 0
	for _, ge := range children {
		if to.Contains(int(ge.To)) {
			upper++
		}
	}
	return upper >= need && upper >= 1
}

// reaccept brings the acceptance sets in line with repaired candidate sets
// by re-judging only what can have changed: an edit's endpoint (its own
// rows differ), a pair that entered or left a candidate set, and the
// parents, over a quantified edge into that set, of such a pair's node
// (their viable child count differs). A node born since is a candidate only
// if it entered a candidate set, so changed names it.
func (bp *boundPositive) reaccept(g *graph.Graph, edits []graph.EdgeEdit, changed []simulation.Pair) {
	n := g.NumNodes()
	for _, set := range bp.accept {
		set.Grow(n)
	}
	rejudge := func(u int, v graph.NodeID) {
		ok := bp.cand[u].Contains(int(v))
		for _, ei := range bp.quantOut[u] {
			ok = ok && bp.viable(g, ei, v)
		}
		if ok == bp.accept[u].Contains(int(v)) {
			return
		}
		d := -1
		if ok {
			bp.accept[u].Add(int(v))
			d = 1
		} else {
			bp.accept[u].Remove(int(v))
		}
		if u == bp.p.Focus {
			bp.accepted += d
		}
	}
	for _, e := range edits {
		for _, v := range [2]graph.NodeID{e.From, e.To} {
			if int(v) >= n {
				continue // a node a rollback took away
			}
			for u := range bp.p.Nodes {
				rejudge(u, v)
			}
		}
	}
	for _, c := range changed {
		rejudge(c.U, c.V)
		for _, ei := range bp.quant {
			if e := bp.p.Edges[ei]; e.To == c.U {
				for _, ge := range g.InByLabel(c.V, bp.edgeLabel[ei]) {
					rejudge(e.From, ge.To)
				}
			}
		}
	}
}

// program allocates one run's program over the bound's labels, order and
// the given sets.
func (bp *boundPositive) program(g *graph.Graph, cand, accept []*bitset.Set) *program {
	return &program{
		g: g, p: bp.p, quant: bp.quant, quantOut: bp.quantOut, hasEQ: bp.hasEQ, matchOrder: bp.ord,
		edgeLabel: bp.edgeLabel, cand: cand, accept: accept,
		assign: make([]graph.NodeID, len(bp.p.Nodes)),
		need:   make([]int, len(bp.p.Edges)),
	}
}

// Run evaluates the bound pattern over its graph with engine e, advancing
// the bound first.
func (b *Bound) Run(e Engine, opts *Options) (*Result, error) {
	b.Advance()

	res := &Result{}
	var t0 time.Time
	if opts != nil && opts.CollectProfile {
		res.Profile = &Profile{}
		t0 = time.Now()
	}
	if opts != nil && opts.FocusRestrict != nil && len(opts.FocusRestrict) == 0 {
		// Asked about nobody: nothing to evaluate, and an empty profile.
		finishProfile(res, t0)
		return res, nil
	}

	base, err := b.eval(&b.pos[0], e, opts, nil, &res.Metrics, res.Profile)
	if err != nil {
		return nil, err
	}
	if len(b.pos) == 1 || len(base) == 0 {
		res.Matches = base
		finishProfile(res, t0)
		return res, nil
	}

	// Q(xo, G) = Π(Q)(xo, G) \ ⋃e Π(Q+e)(xo, G). Only the intersection with
	// the base answers matters, so IncQMatch restricts the focus candidates
	// of each positified pattern to the cached Π(Q) matches.
	out := base
	for i := range b.pos[1:] {
		var restrict []graph.NodeID
		if e&incremental != 0 {
			res.Metrics.IncRuns++
			restrict = base
			res.Metrics.IncCandidates += len(base)
		}
		minus, err := b.eval(&b.pos[i+1], e, opts, restrict, &res.Metrics, res.Profile)
		if err != nil {
			return nil, err
		}
		out = subtractSorted(out, minus)
	}
	res.Matches = out
	finishProfile(res, t0)
	return res, nil
}

// eval evaluates one bound positive pattern with engine e. restrict, when
// non-nil, limits focus candidates (incremental evaluation); the caller's
// FocusRestrict option is applied on top. prof, when non-nil, receives one
// PatternProfile entry.
func (b *Bound) eval(bp *boundPositive, e Engine, opts *Options, restrict []graph.NodeID, m *Metrics, prof *Profile) ([]graph.NodeID, error) {
	var pp *PatternProfile
	var before Metrics
	var t0 time.Time
	if prof != nil {
		prof.Patterns = append(prof.Patterns, PatternProfile{Pattern: bp.name})
		pp = &prof.Patterns[len(prof.Patterns)-1]
		before = *m
		t0 = time.Now()
	}
	set, err := combineRestrictions(b.g.NumNodes(), opts, restrict)
	if err != nil {
		return nil, err
	}
	if pp != nil && set != nil {
		pp.Restricted = len(set)
	}
	empty := bp.unlabelled
	var cand, accept []*bitset.Set
	if !empty {
		var origin string
		cand, accept, empty, origin = b.sets(bp, e)
		if pp != nil {
			pp.Bound = origin
		}
	}
	if pp != nil {
		pp.CompileMS = msSince(t0)
	}
	if empty {
		if pp != nil {
			pp.Empty = true
		}
		return nil, nil
	}
	pr := bp.program(b.g, cand, accept)
	if pp != nil {
		for u := range bp.p.Nodes {
			pp.Nodes = append(pp.Nodes, NodeProfile{
				Name:       bp.p.Nodes[u].Name,
				Candidates: cand[u].Count(),
				Accepted:   accept[u].Count(),
			})
		}
		for _, u := range pr.order {
			pp.Order = append(pp.Order, bp.p.Nodes[u].Name)
		}
	}
	if opts != nil {
		pr.budget = opts.ExtensionBudget
	}
	t1 := time.Now()
	answers := evalPositive(pr, set, e&earlyAccept != 0, m)
	if pr.budgetExceeded {
		return nil, ErrBudgetExceeded
	}
	if pp != nil {
		pp.EvalMS = msSince(t1)
		pp.Answers = len(answers)
		pp.Metrics = metricsDelta(*m, before)
	}
	return answers, nil
}
