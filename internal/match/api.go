package match

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/graph"
)

// Result is the outcome of a quantified matching run: the sorted matches
// of the query focus, Q(xo, G), and the work metrics. Profile is non-nil
// only when Options.CollectProfile was set.
type Result struct {
	Matches []graph.NodeID
	Metrics Metrics
	Profile *Profile
}

// Options tunes an evaluation.
type Options struct {
	// FocusRestrict, when non-empty, restricts evaluation to these focus
	// candidates. Parallel workers use it to evaluate only the nodes their
	// fragment covers.
	FocusRestrict []graph.NodeID
	// ExtensionBudget, when > 0, aborts the evaluation with
	// ErrBudgetExceeded once the engine has attempted that many candidate
	// extensions. Use it to bound worst-case exponential searches (cost
	// probes, interactive time limits).
	ExtensionBudget int64
	// OrderBy, when non-nil, proposes a matching order for each positive
	// pattern the evaluation compiles (Π(Q) and every positified Q+e). It
	// receives the pattern and returns a permutation of its node indexes;
	// the engine follows the proposal as far as connectivity allows and
	// falls back to its default breadth-first order when the proposal is
	// nil or not a permutation. internal/plan provides a statistics-driven
	// implementation.
	OrderBy func(p *core.Pattern) []int
	// CollectProfile, when set, records a per-stage Profile (prefilter
	// sizes, matching order, timings) into Result.Profile. Collection
	// cost is a handful of bitset counts and clock reads per compiled
	// pattern — negligible against evaluation, but nonzero, so it is
	// opt-in.
	CollectProfile bool
}

// ErrBudgetExceeded is returned when Options.ExtensionBudget ran out
// before the evaluation completed. Partial results are discarded: the
// exact semantics admit no sound partial answer.
var ErrBudgetExceeded = fmt.Errorf("match: extension budget exceeded")

// restriction is a set of focus candidates: the ascending, distinct ids,
// and a bitset over the graph's nodes only when there are too many of them
// (more than |V|/8) for the focus-scoped fast path, which walks the list.
type restriction struct {
	ids  []graph.NodeID
	bits *bitset.Set
}

// combineRestrictions intersects the caller's FocusRestrict option with an
// algorithm-internal restriction (IncQMatch: ascending, distinct answers
// of an earlier pattern). A nil result means no restriction. FocusRestrict
// arrives from outside the engine, so an id that is not a node of the
// graph is an error, not a bitset panic. A small restriction allocates
// nothing when it is the only one and already ascending.
func combineRestrictions(n int, opts *Options, internal []graph.NodeID) (*restriction, error) {
	var r *restriction
	if opts != nil && len(opts.FocusRestrict) > 0 {
		for _, v := range opts.FocusRestrict {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("match: FocusRestrict names node %d, outside the graph's [0, %d)", v, n)
			}
		}
		r = &restriction{ids: ascending(opts.FocusRestrict)}
	}
	if internal != nil {
		if r == nil {
			r = &restriction{ids: internal}
		} else {
			r.ids = intersectSorted(r.ids, internal)
		}
	}
	if r != nil && len(r.ids)*8 > n {
		r.bits = toBitset(r.ids, n)
	}
	return r, nil
}

// ascending returns vs as an ascending list of distinct ids: vs itself
// when it already is one, a sorted and compacted copy otherwise.
func ascending(vs []graph.NodeID) []graph.NodeID {
	for i := 1; i < len(vs); i++ {
		if vs[i-1] >= vs[i] {
			out := slices.Clone(vs)
			slices.Sort(out)
			return slices.Compact(out)
		}
	}
	return vs
}

// intersectSorted returns a ∩ b for ascending slices, as a fresh slice.
func intersectSorted(a, b []graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, min(len(a), len(b)))
	for _, v := range a {
		for len(b) > 0 && b[0] < v {
			b = b[1:]
		}
		if len(b) > 0 && b[0] == v {
			out = append(out, v)
		}
	}
	return out
}

// QMatch evaluates a QGP with the paper's optimized algorithm (§4):
// simulation-filtered candidates, quantifier-threshold pruning of the
// acceptance search, early termination, and incremental IncQMatch
// processing of negated edges against the cached Π(Q) answers. It is
// Prepare followed by one Run.
func QMatch(g *graph.Graph, q *core.Pattern, opts *Options) (*Result, error) {
	return prepareRun(g, q, opts, qmatchConfig)
}

// QMatchN is QMatch without IncQMatch: each positified pattern Q+e is
// re-evaluated from scratch over the full candidate space (the ablation
// baseline of Exp-1 and Exp-2).
func QMatchN(g *graph.Graph, q *core.Pattern, opts *Options) (*Result, error) {
	return prepareRun(g, q, opts, evalConfig{useSim: true, quantFilter: true, earlyAccept: true, incremental: false})
}

// Enum is the enumerate-then-verify baseline (§7): a conventional
// subgraph-isomorphism engine (with the same simulation-based candidate
// filtering as QMatch, standing in for the state-of-the-art engine the
// paper uses) enumerates all matches of the stratified pattern and
// verifies quantifiers afterwards — no quantifier-aware pruning, no early
// acceptance, no incremental negation handling.
func Enum(g *graph.Graph, q *core.Pattern, opts *Options) (*Result, error) {
	return prepareRun(g, q, opts, evalConfig{useSim: true, quantFilter: false, earlyAccept: false, incremental: false})
}

// evalConfig is the engine variant: which of the paper's optimizations an
// evaluation applies.
type evalConfig struct {
	useSim      bool
	quantFilter bool
	earlyAccept bool
	incremental bool
}

var qmatchConfig = evalConfig{useSim: true, quantFilter: true, earlyAccept: true, incremental: true}

func prepareRun(g *graph.Graph, q *core.Pattern, opts *Options, cfg evalConfig) (*Result, error) {
	p, err := prepare(q, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(g, opts)
}

// Prepared is a QGP ready to be evaluated with QMatch over any graph, any
// number of times: everything evaluation derives from the pattern alone —
// validation, Π(Q) and every Π(Q+e) with their connectivity checks,
// quantified-edge tables, matching orders — is done. It does not follow
// later changes to the pattern it was prepared from. A Prepared is
// immutable and safe for concurrent Run.
type Prepared struct {
	cfg evalConfig
	pi  *positive
	neg []*positive // Π(Q+e) per negated edge e of Q, in edge order
}

// Prepare validates q and analyses it for repeated evaluation: a standing
// pattern is prepared once and Run after every batch.
func Prepare(q *core.Pattern) (*Prepared, error) {
	return prepare(q, qmatchConfig)
}

func prepare(q *core.Pattern, cfg evalConfig) (*Prepared, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("match: %w", err)
	}
	pi, _ := q.Pi()
	if !pi.Connected() {
		return nil, fmt.Errorf("match: Π(Q) is disconnected; the pattern cannot be evaluated")
	}
	p := &Prepared{cfg: cfg, pi: newPositive("pi", pi)}
	for _, ei := range q.NegatedEdges() {
		pp, _ := q.PiPlus(ei)
		if !pp.Connected() {
			return nil, fmt.Errorf("match: Π(Q+e) is disconnected for edge %d", ei)
		}
		p.neg = append(p.neg, newPositive(fmt.Sprintf("pi+e%d", ei), pp))
	}
	return p, nil
}

// Run evaluates the prepared pattern over g. Labels are resolved against g
// on every call, so one Prepared follows a graph through its versions —
// including a label the graph first interns in a later batch.
func (p *Prepared) Run(g *graph.Graph, opts *Options) (*Result, error) {
	res := &Result{}
	var t0 time.Time
	if opts != nil && opts.CollectProfile {
		res.Profile = &Profile{}
		t0 = time.Now()
	}

	base, err := p.pi.eval(g, opts, p.cfg, nil, &res.Metrics, res.Profile)
	if err != nil {
		return nil, err
	}
	if len(p.neg) == 0 || len(base) == 0 {
		res.Matches = base
		finishProfile(res, t0)
		return res, nil
	}

	// Q(xo, G) = Π(Q)(xo, G) \ ⋃e Π(Q+e)(xo, G). Only the intersection with
	// the base answers matters, so IncQMatch restricts the focus candidates
	// of each positified pattern to the cached Π(Q) matches.
	out := base
	for _, pp := range p.neg {
		var restrict []graph.NodeID
		if p.cfg.incremental {
			res.Metrics.IncRuns++
			restrict = base
			res.Metrics.IncCandidates += len(base)
		}
		minus, err := pp.eval(g, opts, p.cfg, restrict, &res.Metrics, res.Profile)
		if err != nil {
			return nil, err
		}
		out = subtractSorted(out, minus)
	}
	res.Matches = out
	finishProfile(res, t0)
	return res, nil
}

// subtractSorted returns a \ b for ascending slices, as a fresh slice.
func subtractSorted(a, b []graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(a))
	for _, v := range a {
		for len(b) > 0 && b[0] < v {
			b = b[1:]
		}
		if len(b) == 0 || b[0] != v {
			out = append(out, v)
		}
	}
	return out
}

// finishProfile stamps the evaluation total onto a collected profile.
func finishProfile(res *Result, t0 time.Time) {
	if res.Profile == nil {
		return
	}
	res.Profile.TotalMS = msSince(t0)
	res.Profile.Metrics = res.Metrics
}

// msSince returns the elapsed time since t0 in fractional milliseconds.
func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1000
}

// eval binds the positive pattern to g and evaluates it. restrict, when
// non-nil, limits focus candidates (incremental evaluation); the caller's
// FocusRestrict option is applied on top. prof, when non-nil, receives one
// PatternProfile entry.
func (ps *positive) eval(g *graph.Graph, opts *Options, cfg evalConfig, restrict []graph.NodeID, m *Metrics, prof *Profile) ([]graph.NodeID, error) {
	var pp *PatternProfile
	var before Metrics
	var t0 time.Time
	if prof != nil {
		prof.Patterns = append(prof.Patterns, PatternProfile{Pattern: ps.name})
		pp = &prof.Patterns[len(prof.Patterns)-1]
		before = *m
		t0 = time.Now()
	}
	var pref []int
	if opts != nil && opts.OrderBy != nil {
		pref = opts.OrderBy(ps.p)
	}
	set, err := combineRestrictions(g.NumNodes(), opts, restrict)
	if err != nil {
		return nil, err
	}
	if cfg.useSim && set != nil && set.bits == nil {
		// Focus-scoped fast path (at most |V|/8 focus candidates: every
		// watch re-verification, every small IncQMatch restriction):
		// simulation and the acceptance filter cost O(|G|) per evaluation
		// no matter how few focus candidates are asked about, while the
		// anchored search itself only visits the candidates'
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
	pr, err := ps.bind(g, cfg.useSim, cfg.quantFilter, pref)
	if pp != nil {
		pp.CompileMS = msSince(t0)
	}
	if err != nil {
		if pp != nil {
			pp.Empty = true
		}
		return nil, nil
	}
	if pp != nil {
		for u := range ps.p.Nodes {
			pp.Nodes = append(pp.Nodes, NodeProfile{
				Name:       ps.p.Nodes[u].Name,
				Candidates: pr.size(pr.cand, u),
				Accepted:   pr.size(pr.accept, u),
			})
		}
		for _, u := range pr.order {
			pp.Order = append(pp.Order, ps.p.Nodes[u].Name)
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
