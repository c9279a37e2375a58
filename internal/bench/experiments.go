package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rules"
)

// maxPatternHops caps the radius of generated patterns: the paper cites
// the finding that 99% of real-world queries have radius ≤ 2, and fixes
// d = 2 for its parallel experiments.
const maxPatternHops = 2

// exp1 — Figure 8(a): sequential response time of QMatch vs QMatchn vs
// Enum over a knowledge graph ("yago2"), the social graph with pattern
// sizes (5,7) and (6,8) ("pokec5"/"pokec6"), and a small-world synthetic.
func exp1(sc Scale, w io.Writer) error {
	type dataset struct {
		name  string
		g     *graph.Graph
		nodes int
		edges int
	}
	social := gen.Social(gen.DefaultSocial(sc.SocialPersons, sc.Seed))
	datasets := []dataset{
		{"yago2", gen.Knowledge(gen.DefaultKnowledge(sc.KnowledgePersons, sc.Seed)), 5, 7},
		{"pokec5", social, 5, 7},
		{"pokec6", social, 6, 8},
		{"synthetic", gen.SmallWorld(gen.SmallWorldConfig{
			Nodes: 2 * sc.SmallWorldNodes, Edges: 2 * sc.SmallWorldEdges, Seed: sc.Seed}), 4, 5},
	}
	for _, ds := range datasets {
		generate := patternsWithHops
		if ds.name == "synthetic" {
			generate = sampledPatternsWithHops
		}
		patterns := generate(ds.g, gen.PatternConfig{
			Nodes: ds.nodes, Edges: ds.edges, RatioBP: 3000, NegEdges: 1, Seed: sc.Seed,
		}, sc.PatternsPerPoint, maxPatternHops)
		for _, algo := range sequentialAlgos {
			start := time.Now()
			var total int64
			matches := 0
			for _, q := range patterns {
				res, err := algo.run(ds.g, q, nil)
				if err != nil {
					return fmt.Errorf("exp1 %s/%s: %w", ds.name, algo.name, err)
				}
				total += res.Metrics.Extensions + int64(res.Metrics.Verifications)
				matches += len(res.Matches)
			}
			row(w, 1, ds.name, algo.name, time.Since(start), total, total, matches)
		}
	}
	return nil
}

// varyN runs the Figure 8(b)/8(c) sweep on one graph: the same patterns
// on a served cluster of each n.
func varyN(exp int, sc Scale, w io.Writer, g *graph.Graph, nodes, edges int) error {
	patterns := patternsWithHops(g, gen.PatternConfig{
		Nodes: nodes, Edges: edges, RatioBP: 3000, NegEdges: 1, Seed: sc.Seed,
	}, sc.PatternsPerPoint, maxPatternHops)
	for _, n := range sc.Workers {
		if err := servedRows(w, exp, fmt.Sprintf("n=%d", n), g, n, patterns); err != nil {
			return err
		}
	}
	return nil
}

// exp2 — Figure 8(b): parallel matching varying n on the social graph.
func exp2(sc Scale, w io.Writer) error {
	return varyN(2, sc, w, gen.Social(gen.DefaultSocial(sc.SocialPersons, sc.Seed)), 6, 8)
}

// exp3 — Figure 8(c): parallel matching varying n on the knowledge graph.
func exp3(sc Scale, w io.Writer) error {
	return varyN(3, sc, w, gen.Knowledge(gen.DefaultKnowledge(sc.KnowledgePersons, sc.Seed)), 5, 7)
}

// varyNDPar runs the Figure 8(d)/8(e) sweep: DPar cost and balance. Like
// the paper, the d=3 partition is computed incrementally from the d=2 one
// (Extend), not from scratch.
func varyNDPar(exp int, sc Scale, w io.Writer, g *graph.Graph) error {
	for _, n := range sc.Workers {
		start := time.Now()
		p2, err := partition.DPar(g, partition.Config{Workers: n, D: 2})
		if err != nil {
			return err
		}
		row(w, exp, fmt.Sprintf("n=%d", n), "d=2",
			time.Since(start), int64(p2.MaxWork()), int64(p2.TotalWork()), int(p2.Skew()*100))

		start = time.Now()
		p3, err := p2.Extend(3)
		if err != nil {
			return err
		}
		row(w, exp, fmt.Sprintf("n=%d", n), "d=3",
			time.Since(start), int64(p3.MaxWork()), int64(p3.TotalWork()), int(p3.Skew()*100))
	}
	return nil
}

// exp4 — Figure 8(d): DPar varying n on the social graph. The matches
// column reports the balance skew in percent (paper: ≥ 80 at n = 8).
func exp4(sc Scale, w io.Writer) error {
	return varyNDPar(4, sc, w, gen.Social(gen.DefaultSocial(sc.SocialPersons, sc.Seed)))
}

// exp5 — Figure 8(e): DPar varying n on the knowledge graph.
func exp5(sc Scale, w io.Writer) error {
	return varyNDPar(5, sc, w, gen.Knowledge(gen.DefaultKnowledge(sc.KnowledgePersons, sc.Seed)))
}

// point is one x of a pattern sweep: its label and what the patterns
// generated for it look like.
type point struct {
	x   string
	cfg gen.PatternConfig
}

// sweep runs the Figure 8(f)–8(k) sweeps: one served cluster of the
// largest n, and the patterns of each point on it.
func sweep(exp int, sc Scale, w io.Writer, g *graph.Graph, points []point) error {
	c, err := served(g, sc.Workers[len(sc.Workers)-1])
	if err != nil {
		return err
	}
	defer c.Close()
	for _, p := range points {
		p.cfg.Seed = sc.Seed
		patterns := patternsWithHops(g, p.cfg, sc.PatternsPerPoint, maxPatternHops)
		if err := parallelRows(w, exp, p.x, c, patterns); err != nil {
			return err
		}
	}
	return nil
}

// varyQ sweeps the pattern size.
func varyQ(exp int, sc Scale, w io.Writer, g *graph.Graph, sizes [][2]int) error {
	var points []point
	for _, size := range sizes {
		points = append(points, point{fmt.Sprintf("(%d,%d)", size[0], size[1]),
			gen.PatternConfig{Nodes: size[0], Edges: size[1], RatioBP: 3000, NegEdges: 1}})
	}
	return sweep(exp, sc, w, g, points)
}

// exp6 — Figure 8(f): varying |Q| from (4,6) to (8,10) on the social graph.
func exp6(sc Scale, w io.Writer) error {
	return varyQ(6, sc, w, gen.Social(gen.DefaultSocial(sc.SocialPersons, sc.Seed)),
		[][2]int{{4, 6}, {5, 7}, {6, 8}, {7, 9}, {8, 10}})
}

// exp7 — Figure 8(g): varying |Q| from (3,5) to (7,9) on the knowledge
// graph.
func exp7(sc Scale, w io.Writer) error {
	return varyQ(7, sc, w, gen.Knowledge(gen.DefaultKnowledge(sc.KnowledgePersons, sc.Seed)),
		[][2]int{{3, 5}, {4, 6}, {5, 7}, {6, 8}, {7, 9}})
}

// varyNeg sweeps the number of negated edges, the IncQMatch ablation.
func varyNeg(exp int, sc Scale, w io.Writer, g *graph.Graph, nodes, edges int) error {
	var points []point
	for neg := 0; neg <= 4; neg++ {
		points = append(points, point{fmt.Sprintf("neg=%d", neg),
			gen.PatternConfig{Nodes: nodes, Edges: edges, RatioBP: 3000, NegEdges: neg}})
	}
	return sweep(exp, sc, w, g, points)
}

// exp8 — Figure 8(h): varying |E−Q| on the social graph.
func exp8(sc Scale, w io.Writer) error {
	return varyNeg(8, sc, w, gen.Social(gen.DefaultSocial(sc.SocialPersons, sc.Seed)), 6, 8)
}

// exp9 — Figure 8(i): varying |E−Q| on the knowledge graph.
func exp9(sc Scale, w io.Writer) error {
	return varyNeg(9, sc, w, gen.Knowledge(gen.DefaultKnowledge(sc.KnowledgePersons, sc.Seed)), 5, 7)
}

// varyP sweeps the ratio aggregate pa.
func varyP(exp int, sc Scale, w io.Writer, g *graph.Graph, nodes, edges int) error {
	var points []point
	for _, pa := range []int{1000, 3000, 5000, 7000, 9000} {
		points = append(points, point{fmt.Sprintf("p=%d%%", pa/100),
			gen.PatternConfig{Nodes: nodes, Edges: edges, RatioBP: pa, NegEdges: 1}})
	}
	return sweep(exp, sc, w, g, points)
}

// exp10 — Figure 8(j): varying pa on the social graph.
func exp10(sc Scale, w io.Writer) error {
	return varyP(10, sc, w, gen.Social(gen.DefaultSocial(sc.SocialPersons, sc.Seed)), 6, 8)
}

// exp11 — Figure 8(k): varying pa on the knowledge graph.
func exp11(sc Scale, w io.Writer) error {
	return varyP(11, sc, w, gen.Knowledge(gen.DefaultKnowledge(sc.KnowledgePersons, sc.Seed)), 5, 7)
}

// exp12 — Figure 8(l): varying |G| on small-world synthetics with 4
// workers.
func exp12(sc Scale, w io.Writer) error {
	for mult := 1; mult <= 5; mult++ {
		g := gen.SmallWorld(gen.SmallWorldConfig{
			Nodes: mult * sc.SmallWorldNodes,
			Edges: mult * sc.SmallWorldEdges,
			Seed:  sc.Seed,
		})
		patterns := sampledPatternsWithHops(g, gen.PatternConfig{
			Nodes: 4, Edges: 5, RatioBP: 3000, NegEdges: 1, Seed: sc.Seed,
		}, sc.PatternsPerPoint, maxPatternHops)
		x := fmt.Sprintf("|G|=%dk", (g.NumNodes()+g.NumEdges())/1000)
		if err := servedRows(w, 12, x, g, 4, patterns); err != nil {
			return err
		}
	}
	return nil
}

// exp13 — Exp-3: QGAR mining effectiveness on the social and knowledge
// graphs, with an R7-style handcrafted rule on the knowledge graph.
func exp13(sc Scale, w io.Writer) error {
	social := gen.Social(gen.DefaultSocial(sc.SocialPersons, sc.Seed))
	mined, err := rules.Mine(social, rules.MineConfig{
		MinSupport: 10, MinConfidence: 0.5, MaxRules: 5, StartRatioBP: 3000,
	})
	if err != nil {
		return err
	}
	for _, mr := range mined {
		fmt.Fprintf(w, "exp 13  graph=social rule=%-40s supp=%-6d conf=%.2f\n",
			mr.Rule.Name, mr.Eval.Support, mr.Eval.Confidence)
	}

	knowledge := gen.Knowledge(gen.DefaultKnowledge(sc.KnowledgePersons, sc.Seed))
	r7, err := r7Rule()
	if err != nil {
		return err
	}
	ev, err := r7.Evaluate(knowledge)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "exp 13  graph=knowledge rule=%-40s supp=%-6d conf=%.2f\n",
		r7.Name, ev.Support, ev.Confidence)
	return nil
}

// r7Rule builds the R7-style rule of Figure 9: professors who won ≥ 2
// prizes and advised ≥ 4 students are likely to have a foreign student —
// adapted to our generator's vocabulary: they likely advised someone who
// also won a prize.
func r7Rule() (*rules.QGAR, error) {
	q1 := core.NewPattern()
	q1.AddNode("xo", "person")
	q1.AddNode("prof", "prof")
	q1.AddNode("prize", "prize")
	q1.AddNode("z", "person")
	q1.AddEdge("xo", "prof", "is_a", core.Exists())
	q1.AddEdge("xo", "prize", "won", core.Exists())
	q1.AddEdge("xo", "z", "advisor", core.Count(core.GE, 2))

	q2 := core.NewPattern()
	q2.AddNode("xo", "person")
	q2.AddNode("w", "person")
	q2.AddNode("phd", "PhD")
	q2.AddEdge("xo", "w", "advisor", core.Exists())
	q2.AddEdge("w", "phd", "is_a", core.Exists())

	return rules.New("R7(prof∧prize∧≥2 students⇒PhD student)", q1, q2)
}
