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
// options. Labels are resolved when binding, and with them each positive
// pattern's matching order, ranked by the graph's label-class sizes; its
// candidate and acceptance sets — the O(|Q|·|G|) prefilter — are built by
// the first Run that leaves the focus-scoped fast path and read by every
// later one, whatever its FocusRestrict or budget. A scoped
// re-verification never builds them, so it still allocates nothing sized
// by |V|.
//
// A Bound follows its graph by Advance. A Run on a graph that moved without
// one rebinds from scratch rather than read sets of another version. Runs
// may be concurrent; Advance, like the graph write before it, needs them
// excluded.
type Bound struct {
	prep *Prepared
	g    *graph.Graph

	// mu orders concurrent Runs' lazy builds and staleness checks.
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

	state setState
	// origin is what the next run to read the sets reports in its profile:
	// "built" or "repaired" once after the work, "hit" from then on.
	origin string
	// cand[u] over-approximates the stratified-isomorphism images of u:
	// dual simulation, or the label classes when the engine variant runs
	// without it. accept[u] ⊆ cand[u] keeps the candidates that can appear
	// in a quantifier-valid match (Lemma 13); without that filter it is
	// cand. Read-only between Advances. Both nil unless state is setsBuilt.
	cand, accept []*bitset.Set
}

type setState uint8

const (
	setsUnbuilt setState = iota // no full-path run yet at this version
	setsBuilt
	setsEmpty // the verdict "no answer": a set ran empty or a threshold test failed
)

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
	b.rebind()
	return b
}

// Version returns the graph version the bound is valid at.
func (b *Bound) Version() graph.Version {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.version
}

// rebind binds to the graph's current version from scratch.
func (b *Bound) rebind() {
	b.version = b.g.Version()
	for i := range b.pos {
		b.pos[i].resolve(b.g)
		b.pos[i].drop()
	}
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
	bp.state, bp.cand, bp.accept = setsUnbuilt, nil, nil
}

// Advance carries the bound to the graph's current version. touched must
// name every node whose adjacency changed since the version the bound is
// valid at, and every node born since (Versioned.Apply's touched sets of
// the batches in between, concatenated); node ids must only have grown.
// Simulation sets are repaired at a cost that depends on touched, not on
// |G| (simulation.Repair: exactly the sets a fresh bind computes), and
// acceptance sets re-judged around what that changed. It reports whether
// every built
// positive was carried over; one that could not be — a set ran empty, its
// verdict was "no answer", the engine variant runs without simulation — is
// dropped and rebuilt by the next run that needs it.
func (b *Bound) Advance(touched []graph.NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.g.Version() == b.version {
		return true
	}
	b.version = b.g.Version()
	cfg := b.prep.cfg
	carried := true
	for i := range b.pos {
		bp := &b.pos[i]
		bp.resolve(b.g)
		switch {
		case bp.state == setsUnbuilt:
		case bp.state == setsBuilt && cfg.useSim && bp.cand[0].Len() <= b.g.NumNodes():
			changed, ok := simulation.Repair(b.g, bp.p, bp.cand, touched)
			if !ok {
				bp.drop()
				carried = false
				break
			}
			if cfg.quantFilter {
				bp.reaccept(b.g, touched, changed)
			}
			bp.verdict(cfg)
			bp.origin = "repaired"
		default:
			bp.drop()
			carried = false
		}
	}
	return carried
}

// sets returns bp's candidate and acceptance sets, building them on first
// use at this version, and what to report about them. Nil sets are the
// verdict that the pattern has no answer.
func (b *Bound) sets(bp *boundPositive) (cand, accept []*bitset.Set, origin string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bp.state == setsUnbuilt {
		bp.build(b.g, b.prep.cfg)
		bp.origin = "built"
	}
	origin, bp.origin = bp.origin, "hit"
	return bp.cand, bp.accept, origin
}

// build computes the candidate sets: plain dual simulation
// (stratified-sound, so counting may run against it) or, for an engine
// variant without it, the label classes as bitsets for the acceptance
// filter to carve subsets out of.
func (bp *boundPositive) build(g *graph.Graph, cfg evalConfig) {
	bp.state = setsEmpty
	if cfg.useSim {
		sets, ok := simulation.Candidates(g, bp.p, false)
		if !ok {
			return
		}
		bp.cand = sets
	} else {
		bp.cand = make([]*bitset.Set, len(bp.p.Nodes))
		for u := range bp.p.Nodes {
			bp.cand[u] = toBitset(g.NodesByLabel(bp.nodeLabel[u]), g.NumNodes())
		}
	}
	bp.accept = bp.cand
	if cfg.quantFilter {
		bp.accept = bp.acceptanceFilter(g)
	}
	bp.verdict(cfg)
}

// verdict judges non-empty candidate sets and their acceptance sets by the
// threshold tests: the sets stand, or the pattern has no answer.
func (bp *boundPositive) verdict(cfg evalConfig) {
	bp.state = setsBuilt
	if !cfg.quantFilter {
		return
	}
	empty := bp.accept[bp.p.Focus].Empty()
	// Global pruning rule (Lemma 12): the focus has a match only if every
	// pattern node u′ has at least pm candidates, where pm is the largest
	// numeric GE threshold over u′'s incoming quantified edges — a match of
	// u needs that many distinct children matching u′.
	for _, ei := range bp.quant {
		e := bp.p.Edges[ei]
		if !e.Q.IsRatio() && e.Q.Op() == core.GE && bp.cand[e.To].Count() < e.Q.N() {
			empty = true
		}
	}
	if empty {
		bp.state, bp.cand, bp.accept = setsEmpty, nil, nil
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
// by re-judging only what can have changed: a touched node (its own rows
// differ), a pair that entered or left a candidate set, and the parents,
// over a quantified edge into that set, of such a pair's node (their viable
// child count differs).
func (bp *boundPositive) reaccept(g *graph.Graph, touched []graph.NodeID, changed []simulation.Pair) {
	n := g.NumNodes()
	for _, set := range bp.accept {
		set.Grow(n)
	}
	rejudge := func(u int, v graph.NodeID) {
		ok := bp.cand[u].Contains(int(v))
		for _, ei := range bp.quantOut[u] {
			ok = ok && bp.viable(g, ei, v)
		}
		if ok {
			bp.accept[u].Add(int(v))
		} else {
			bp.accept[u].Remove(int(v))
		}
	}
	for _, v := range touched {
		for u := range bp.p.Nodes {
			rejudge(u, v)
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
// the given sets (nil: the label classes as a predicate).
func (bp *boundPositive) program(g *graph.Graph, cand, accept []*bitset.Set) *program {
	return &program{
		g: g, p: bp.p, quant: bp.quant, quantOut: bp.quantOut, hasEQ: bp.hasEQ, matchOrder: bp.ord,
		edgeLabel: bp.edgeLabel, nodeLabel: bp.nodeLabel, cand: cand, accept: accept,
		assign: make([]graph.NodeID, len(bp.p.Nodes)),
		need:   make([]int, len(bp.p.Edges)),
	}
}

// Run evaluates the bound pattern over its graph. If the graph has moved
// since the bound was last valid and nobody called Advance, everything
// bound earlier is discarded first: a stale bound costs a rebuild, never a
// wrong answer.
func (b *Bound) Run(opts *Options) (*Result, error) {
	b.mu.Lock()
	if b.g.Version() != b.version {
		b.rebind()
	}
	b.mu.Unlock()

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

	base, err := b.eval(&b.pos[0], opts, nil, &res.Metrics, res.Profile)
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
		if b.prep.cfg.incremental {
			res.Metrics.IncRuns++
			restrict = base
			res.Metrics.IncCandidates += len(base)
		}
		minus, err := b.eval(&b.pos[i+1], opts, restrict, &res.Metrics, res.Profile)
		if err != nil {
			return nil, err
		}
		out = subtractSorted(out, minus)
	}
	res.Matches = out
	finishProfile(res, t0)
	return res, nil
}

// eval evaluates one bound positive pattern. restrict, when non-nil, limits
// focus candidates (incremental evaluation); the caller's FocusRestrict
// option is applied on top. prof, when non-nil, receives one
// PatternProfile entry.
func (b *Bound) eval(bp *boundPositive, opts *Options, restrict []graph.NodeID, m *Metrics, prof *Profile) ([]graph.NodeID, error) {
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
	cfg := b.prep.cfg
	if cfg.useSim && set != nil && set.bits == nil {
		// Focus-scoped fast path (at most |V|/8 focus candidates: every
		// watch re-verification, every small IncQMatch restriction):
		// simulation and the acceptance filter cost O(|G|) per graph
		// version no matter how few focus candidates are asked about,
		// while the anchored search itself only visits the candidates'
		// neighborhoods. The label classes win outright, and since the
		// search only asks them for membership they stay a predicate on
		// the node's label: nothing on this path is sized by |V|. Answers
		// are identical: the filters are sound over-approximations that
		// prune the search without changing the enumerated isomorphisms.
		cfg.useSim, cfg.quantFilter = false, false
		if pp != nil {
			pp.FastPath = true
		}
	}
	if pp != nil && set != nil {
		pp.Restricted = len(set.ids)
	}
	var cand, accept []*bitset.Set
	empty := bp.unlabelled
	if !empty && (cfg.useSim || cfg.quantFilter) {
		var origin string
		cand, accept, origin = b.sets(bp)
		empty = cand == nil
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
				Candidates: pr.size(pr.cand, u),
				Accepted:   pr.size(pr.accept, u),
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
	answers := evalPositive(pr, set, cfg.earlyAccept, m)
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
