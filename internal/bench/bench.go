// Package bench defines the experiment harness reproducing every figure of
// the paper's evaluation (§7, Figures 8(a)–8(l) plus Exp-3). Each
// experiment generates its seeded workload, runs the algorithms the figure
// compares, and prints one row per (x-value, series) in a fixed format:
//
//	exp <id>  x=<value>  series=<algo>  wall_ms=<t> sim_work=<w> total_work=<w> matches=<m>
//
// The same experiments back both cmd/qgpbench (full scale) and the
// testing.B benchmarks in bench_test.go (reduced scale).
//
// A timing caveat for the served experiments: every worker session keeps
// one bound per pattern, whatever the engine, so at a served point only
// the first engine row's wall_ms includes building the simulation sets;
// the rows after it read them. sim_work, total_work and matches count
// the search alone and are unaffected.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/server"
)

// Scale sizes the workloads. Full() mirrors the paper's setup (scaled to a
// laptop); Small() keeps every experiment in the seconds range for
// testing.B runs.
type Scale struct {
	SocialPersons    int
	KnowledgePersons int
	SmallWorldNodes  int // base size; E12 sweeps multiples
	SmallWorldEdges  int
	Workers          []int // the paper sweeps 4..20; we sweep within the machine
	PatternsPerPoint int   // patterns averaged per data point
	Seed             int64
}

// Full returns the laptop-scale counterpart of the paper's configuration.
func Full() Scale {
	return Scale{
		SocialPersons:    12000,
		KnowledgePersons: 15000,
		SmallWorldNodes:  10000,
		SmallWorldEdges:  20000,
		Workers:          []int{1, 2, 4, 8, 16},
		PatternsPerPoint: 3,
		Seed:             1,
	}
}

// Small returns a reduced scale for unit benchmarks.
func Small() Scale {
	return Scale{
		SocialPersons:    1500,
		KnowledgePersons: 2000,
		SmallWorldNodes:  1500,
		SmallWorldEdges:  3000,
		Workers:          []int{1, 2, 4},
		PatternsPerPoint: 2,
		Seed:             1,
	}
}

// Experiment is one reproducible figure.
type Experiment struct {
	ID     int
	Figure string
	Title  string
	Run    func(sc Scale, w io.Writer) error
}

// All returns the experiments in figure order.
func All() []Experiment {
	return []Experiment{
		{1, "Fig 8(a)", "QMatch vs QMatchn vs Enum response time", exp1},
		{2, "Fig 8(b)", "parallel matching varying n (social)", exp2},
		{3, "Fig 8(c)", "parallel matching varying n (knowledge)", exp3},
		{4, "Fig 8(d)", "DPar varying n (social)", exp4},
		{5, "Fig 8(e)", "DPar varying n (knowledge)", exp5},
		{6, "Fig 8(f)", "varying |Q| (social)", exp6},
		{7, "Fig 8(g)", "varying |Q| (knowledge)", exp7},
		{8, "Fig 8(h)", "varying |E-Q| (social)", exp8},
		{9, "Fig 8(i)", "varying |E-Q| (knowledge)", exp9},
		{10, "Fig 8(j)", "varying pa (social)", exp10},
		{11, "Fig 8(k)", "varying pa (knowledge)", exp11},
		{12, "Fig 8(l)", "varying |G| (synthetic)", exp12},
		{13, "Exp-3", "QGAR mining effectiveness", exp13},
		{14, "Ext-1", "matching order", exp14},
		{15, "Ext-2", "dynamic maintenance: candidates reached, re-judged and flipped per batch", exp15},
		{16, "Ext-3", "a read answered from counts vs QMatch vs a bound-cache hit", exp16},
	}
}

// ByID returns the experiment with the given id.
func ByID(id int) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// row prints one measurement row.
func row(w io.Writer, exp int, x, series string, wall time.Duration, sim, total int64, matches int) {
	fmt.Fprintf(w, "exp %-2d  x=%-12s series=%-9s wall_ms=%-9.2f sim_work=%-11d total_work=%-11d matches=%d\n",
		exp, x, series, float64(wall.Microseconds())/1000, sim, total, matches)
}

// sequentialAlgos are the Exp-1 contestants.
var sequentialAlgos = []struct {
	name string
	run  func(*graph.Graph, *core.Pattern, *match.Options) (*match.Result, error)
}{
	{"QMatch", match.QMatch},
	{"QMatchn", match.QMatchN},
	{"Enum", match.Enum},
}

// parallelEngines are the Exp-2 contestants: the engine every fragment
// runs, by its wire name (match.ParseEngine). They share each worker
// session's one bound per pattern: the first row builds the candidate
// sets, the rows after it read them.
var parallelEngines = []struct{ name, engine string }{
	{"PQMatch", "qmatch"},
	{"PQMatchn", "qmatchn"},
	{"PEnum", "enum"},
}

// patternsWithHops generates patterns whose RequiredHops fit a partition
// of radius d (so parallel evaluation is exact), preferring patterns with
// non-empty answers: a benchmark over unsatisfiable patterns measures
// nothing. If satisfiable patterns are scarce it falls back to whatever
// fits the radius.
func patternsWithHops(g *graph.Graph, cfg gen.PatternConfig, count, maxHops int) []*core.Pattern {
	return patternsFrom(gen.Pattern, g, cfg, count, maxHops)
}

// sampledPatternsWithHops is patternsWithHops over the subgraph-sampling
// generator, used for the label-rich small-world synthetics.
func sampledPatternsWithHops(g *graph.Graph, cfg gen.PatternConfig, count, maxHops int) []*core.Pattern {
	return patternsFrom(gen.SampledPattern, g, cfg, count, maxHops)
}

func patternsFrom(generate func(*graph.Graph, gen.PatternConfig) *core.Pattern, g *graph.Graph, cfg gen.PatternConfig, count, maxHops int) []*core.Pattern {
	var matched, fallback []*core.Pattern
	seed := cfg.Seed
	for attempts := 0; len(matched) < count && attempts < 60; attempts++ {
		c := cfg
		c.Seed = seed
		seed += 104729
		p := generate(g, c)
		if core.RequiredHops(p) > maxHops {
			continue
		}
		prep, err := match.Prepare(p)
		if err != nil {
			continue
		}
		// Probe before the full evaluation, over the same bound: the
		// sample-projected Enum cost upper-bounds QMatch too, so this also
		// guards the satisfiability check against combinatorial blowups.
		b := prep.Bind(g)
		if !enumFeasible(g, p, b, enumWorkBudget) {
			continue
		}
		res, err := b.Run(match.EngineQMatch, nil)
		if err != nil {
			continue
		}
		if len(res.Matches) > 0 {
			matched = append(matched, p)
		} else {
			fallback = append(fallback, p)
		}
	}
	for len(matched) < count && len(fallback) > 0 {
		matched = append(matched, fallback[0])
		fallback = fallback[1:]
	}
	return matched
}

// enumWorkBudget is the projected Enum work (extensions + verifications)
// past which a pattern is left out: a work count, so that which patterns
// an experiment runs depends only on the graph and the seed. At small
// scale, seed 1, the probes run over the simulation sets, and every probe
// of exps 1–16 projects at most 22.7M but exp 6's one at 327.7M, which
// takes 15–18 s of Enum on a 2-vCPU VM (about 50 ns per unit); 200M keeps
// every pattern the pinned tests read and leaves that one out.
const enumWorkBudget = 200_000_000

// enumFeasible estimates the enumerate-then-verify work of a pattern by
// probing a sample of focus candidates and rejects patterns whose
// projected full Enum run exceeds the budget. Occasional hub-driven
// isomorphism explosions would otherwise dominate every sweep that
// includes the Enum baselines; the paper's workloads (mined from real
// graphs with a production-grade engine) sit in the feasible regime, so
// this keeps the comparison in the same regime. b is p bound to g.
func enumFeasible(g *graph.Graph, p *core.Pattern, b *match.Bound, budget int64) bool {
	cands := g.NodesByLabelName(p.Nodes[p.Focus].Label)
	if len(cands) == 0 {
		return true
	}
	k := 16
	if len(cands) < k {
		k = len(cands)
	}
	sample := make([]graph.NodeID, 0, k)
	step := len(cands) / k
	if step == 0 {
		step = 1
	}
	for i := 0; i < k; i++ {
		sample = append(sample, cands[i*step])
	}
	// The probe itself is hard-capped: a single hub candidate can explode.
	res, err := b.Run(match.EngineEnum, &match.Options{FocusRestrict: sample, ExtensionBudget: 30_000_000})
	if err != nil {
		return false // budget blown or otherwise unevaluable: infeasible
	}
	work := res.Metrics.Extensions + int64(res.Metrics.Verifications)
	return work*int64(len(cands))/int64(k) <= budget
}

// served starts n in-process workers, the qgpd sessions qgpcluster
// serves, and a coordinator that fragments a copy of g across them with
// the d-hop preserving DPar and ships each its fragment. The workers run
// without an extension budget, so PEnum runs to the end as Enum does.
func served(g *graph.Graph, n int) (*cluster.Coordinator, error) {
	ts := cluster.InProcessN(n, server.Config{DefaultBudget: -1})
	c, err := cluster.New(g.Clone(), ts, cluster.Config{D: maxPatternHops})
	if err != nil {
		cluster.CloseAll(ts)
	}
	return c, err
}

// servedRows prints parallelRows for the patterns on a served cluster of
// n workers over g.
func servedRows(w io.Writer, exp int, x string, g *graph.Graph, n int, patterns []*core.Pattern) error {
	c, err := served(g, n)
	if err != nil {
		return err
	}
	defer c.Close()
	return parallelRows(w, exp, x, c, patterns)
}

// parallelRows prints one row per parallel engine for the patterns
// matched on c, summing each match's total and critical-path work
// (MatchResult.Work) over the patterns.
func parallelRows(w io.Writer, exp int, x string, c *cluster.Coordinator, patterns []*core.Pattern) error {
	for _, e := range parallelEngines {
		start := time.Now()
		var sim, total int64
		matches := 0
		for _, q := range patterns {
			res, err := c.MatchWith(q, &cluster.MatchOptions{Engine: e.engine})
			if err != nil {
				return fmt.Errorf("exp%d %s %s: %w", exp, x, e.name, err)
			}
			t, slowest := res.Work()
			total += t
			sim += slowest
			matches += len(res.Matches)
		}
		row(w, exp, x, e.name, time.Since(start), sim, total, matches)
	}
	return nil
}
