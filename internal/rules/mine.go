package rules

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// MineConfig controls the seed-and-extend QGAR miner of Exp-3.
type MineConfig struct {
	// MinSupport and MinConfidence are the interestingness thresholds
	// (the paper uses η = 0.5 for confidence).
	MinSupport    int
	MinConfidence float64
	// MinLift, when > 0, drops rules whose lift is below it (tautology
	// filter; 1.05–1.2 is a reasonable bar).
	MinLift float64
	// MaxRules bounds the output.
	MaxRules int
	// StartRatioBP is the initial pa for the quantified antecedent edge
	// (the paper starts at 30%); the miner then raises it in 10% steps
	// while confidence stays above the threshold (Exp-3's extension).
	StartRatioBP int
}

// MinedRule pairs a rule with its evaluation on the mining graph.
type MinedRule struct {
	Rule *QGAR
	Eval *Evaluation
}

// Mine discovers QGARs on g following the recipe of Exp-3:
//
//  1. seed GPAR-style rules from the graph's frequent features — an
//     antecedent "xo −l1(≥ pa%)→ u" and a single-edge consequent
//     "xo −l2→ w" with l1 ≠ l2;
//  2. keep seeds meeting the support and confidence thresholds;
//  3. extend each kept rule by raising the ratio aggregate in 10% (1000
//     bp) increments while confidence stays above the threshold,
//     reporting the strongest variant.
//
// Results are sorted by confidence then support, capped at MaxRules.
func Mine(g *graph.Graph, cfg MineConfig) ([]MinedRule, error) {
	if cfg.MaxRules <= 0 {
		cfg.MaxRules = 10
	}
	if cfg.StartRatioBP <= 0 {
		cfg.StartRatioBP = 3000
	}
	feats := gen.MineFeatures(g)
	if len(feats) > 12 {
		feats = feats[:12]
	}
	// Consequent extensions: the most frequent feature leaving each label,
	// so consequents are two-hop chains (like the paper's R7) whose base
	// rate is genuinely below 1 — single-edge consequents are trivially
	// satisfied by every LCWA-trustworthy candidate.
	extend := make(map[string]gen.Feature)
	for _, f := range feats {
		if _, ok := extend[f.Src]; !ok {
			extend[f.Src] = f
		}
	}

	// The seeds share antecedents and consequents, and a ratio ladder
	// repeats its consequent on every rung: each distinct pattern is
	// matched once per call.
	memo := make(answerMemo)
	var mined []MinedRule
	for _, f1 := range feats {
		for _, f2 := range feats {
			// Chain: the ratio must count children that are themselves
			// constrained (f1.dst = f2.src), or the aggregate is trivially
			// 100% of same-labeled children.
			if f1.Dst != f2.Src {
				continue
			}
			for _, f3 := range feats {
				if f3.Src != f1.Src {
					continue
				}
				if f3.Edge == f1.Edge && f3.Dst == f1.Dst {
					continue // consequent would share the antecedent edge
				}
				mined = appendRule(mined, g, memo, cfg, f1, f2, f3, extend)
			}
		}
	}
	sort.Slice(mined, func(i, j int) bool {
		if mined[i].Eval.Lift != mined[j].Eval.Lift {
			return mined[i].Eval.Lift > mined[j].Eval.Lift
		}
		if mined[i].Eval.Confidence != mined[j].Eval.Confidence {
			return mined[i].Eval.Confidence > mined[j].Eval.Confidence
		}
		if mined[i].Eval.Support != mined[j].Eval.Support {
			return mined[i].Eval.Support > mined[j].Eval.Support
		}
		return mined[i].Rule.Name < mined[j].Rule.Name
	})
	if len(mined) > cfg.MaxRules {
		mined = mined[:cfg.MaxRules]
	}
	return mined, nil
}

// appendRule evaluates the seed rule built from (f1, f2, f3), extends its
// ratio while it stays confident, and appends the strongest variant; memo
// holds the answers of the patterns matched so far.
func appendRule(mined []MinedRule, g *graph.Graph, memo answerMemo, cfg MineConfig, f1, f2, f3 gen.Feature, extend map[string]gen.Feature) []MinedRule {
	rule, err := seedRule(f1, f2, f3, extend, cfg.StartRatioBP)
	if err != nil {
		return mined
	}
	ev, err := rule.evaluate(g, memo)
	if err != nil || ev.Support < cfg.MinSupport || ev.Confidence < cfg.MinConfidence {
		return mined
	}
	if cfg.MinLift > 0 && ev.Lift < cfg.MinLift {
		return mined
	}
	best := MinedRule{Rule: rule, Eval: ev}
	for bp := cfg.StartRatioBP + 1000; bp <= 10000; bp += 1000 {
		stronger, err := seedRule(f1, f2, f3, extend, bp)
		if err != nil {
			break
		}
		ev2, err := stronger.evaluate(g, memo)
		if err != nil || ev2.Support < cfg.MinSupport || ev2.Confidence < cfg.MinConfidence ||
			(cfg.MinLift > 0 && ev2.Lift < cfg.MinLift) {
			break
		}
		best = MinedRule{Rule: stronger, Eval: ev2}
	}
	return append(mined, best)
}

// seedRule builds the rule "if ≥ pa% of xo's l1-children have an l2-edge
// to some w, then xo has an l3-edge to a y that itself has an l4-edge"
// (the consequent is extended by one hop when the feature table allows).
func seedRule(f1, f2, f3 gen.Feature, extend map[string]gen.Feature, ratioBP int) (*QGAR, error) {
	q1 := core.NewPattern()
	q1.AddNode("xo", f1.Src)
	q1.AddNode("u", f1.Dst)
	q1.AddNode("w", f2.Dst)
	q1.AddEdge("xo", "u", f1.Edge, core.Ratio(core.GE, ratioBP))
	q1.AddEdge("u", "w", f2.Edge, core.Exists())

	q2 := core.NewPattern()
	q2.AddNode("xo", f3.Src)
	q2.AddNode("y", f3.Dst)
	q2.AddEdge("xo", "y", f3.Edge, core.Exists())
	consLabel := f3.Edge
	if f4, ok := extend[f3.Dst]; ok {
		q2.AddNode("y2", f4.Dst)
		q2.AddEdge("y", "y2", f4.Edge, core.Exists())
		consLabel = f3.Edge + "." + f4.Edge
	}

	name := fmt.Sprintf("%s:(%s.%s)≥%d%%⇒%s", f1.Src, f1.Edge, f2.Edge, ratioBP/100, consLabel)
	return New(name, q1, q2)
}
