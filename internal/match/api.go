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
	// FocusRestrict, when non-nil, restricts evaluation to exactly these
	// focus candidates: nil asks about every node, an empty list about
	// nobody (a fragment that materialises nodes but owns none answers
	// nothing). Parallel workers use it to evaluate only the nodes their
	// fragment covers.
	FocusRestrict []graph.NodeID
	// ExtensionBudget, when > 0, aborts the evaluation with
	// ErrBudgetExceeded once the engine has attempted that many candidate
	// extensions. Use it to bound worst-case exponential searches (cost
	// probes, interactive time limits).
	ExtensionBudget int64
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
// of an earlier pattern). A nil result means no restriction; a nil
// FocusRestrict is none, an empty one restricts to nobody. FocusRestrict
// arrives from outside the engine, so an id that is not a node of the
// graph is an error, not a bitset panic. A small restriction allocates
// nothing when it is the only one and already ascending.
func combineRestrictions(n int, opts *Options, internal []graph.NodeID) (*restriction, error) {
	var r *restriction
	if opts != nil && opts.FocusRestrict != nil {
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
	return prepareRun(g, q, opts, qmatchNConfig)
}

// Enum is the enumerate-then-verify baseline (§7): a conventional
// subgraph-isomorphism engine (with the same simulation-based candidate
// filtering as QMatch, standing in for the state-of-the-art engine the
// paper uses) enumerates all matches of the stratified pattern and
// verifies quantifiers afterwards — no quantifier-aware pruning, no early
// acceptance, no incremental negation handling.
func Enum(g *graph.Graph, q *core.Pattern, opts *Options) (*Result, error) {
	return prepareRun(g, q, opts, enumConfig)
}

// evalConfig is the engine variant: which of the paper's optimizations an
// evaluation applies.
type evalConfig struct {
	useSim      bool
	quantFilter bool
	earlyAccept bool
	incremental bool
}

var (
	qmatchConfig  = evalConfig{useSim: true, quantFilter: true, earlyAccept: true, incremental: true}
	qmatchNConfig = evalConfig{useSim: true, quantFilter: true, earlyAccept: true}
	enumConfig    = evalConfig{useSim: true}
)

func prepareRun(g *graph.Graph, q *core.Pattern, opts *Options, cfg evalConfig) (*Result, error) {
	p, err := prepare(q, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(g, opts)
}

// Prepared is a QGP ready to be evaluated with one engine variant over any
// graph, any number of times: everything evaluation derives from the
// pattern alone — validation, Π(Q) and every Π(Q+e) with their
// connectivity checks, quantified-edge tables, matching orders — is done.
// It does not follow later changes to the pattern it was prepared from. A
// Prepared is immutable and safe for concurrent Run and Bind.
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

// PrepareEngine is Prepare for the engine variant of the given wire name:
// "qmatch" (or empty) for QMatch, "qmatchn" for QMatchN, "enum" for Enum.
func PrepareEngine(engine string, q *core.Pattern) (*Prepared, error) {
	cfg, err := engineConfig(engine)
	if err != nil {
		return nil, err
	}
	return prepare(q, cfg)
}

// CheckEngine refuses the engine names PrepareEngine refuses, with the same
// error, before there is a pattern to prepare: a server checks a request's
// engine before anything runs it.
func CheckEngine(engine string) error {
	_, err := engineConfig(engine)
	return err
}

func engineConfig(engine string) (evalConfig, error) {
	switch engine {
	case "qmatch", "":
		return qmatchConfig, nil
	case "qmatchn":
		return qmatchNConfig, nil
	case "enum":
		return enumConfig, nil
	}
	return evalConfig{}, fmt.Errorf("unknown engine %q", engine)
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

// Run evaluates the prepared pattern over g as it stands: Bind followed by
// one Run of the Bound, so labels are resolved per call and one Prepared
// follows a graph through its versions — including a label the graph
// first interns in a later batch. A caller that evaluates the same graph
// version repeatedly keeps the Bound instead.
func (p *Prepared) Run(g *graph.Graph, opts *Options) (*Result, error) {
	return p.Bind(g).Run(opts)
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
