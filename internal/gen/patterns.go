package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// PatternConfig controls the QGP generator of §7: stratified patterns of
// |VQ| nodes and |EQ| edges built from the graph's most frequent features,
// ratio quantifiers of pa% on focus edges, and |E−Q| negated edges added
// as fresh branches (the Q3/Q4 shape).
type PatternConfig struct {
	Nodes    int // |VQ| of the positive part
	Edges    int // |EQ| target of the positive part (≥ Nodes-1)
	RatioBP  int // pa in basis points (3000 = the paper's default 30%)
	NegEdges int // |E−Q|
	Seed     int64
}

// Feature is a frequent (source label, edge label, target label) triple
// mined from a graph.
type Feature struct {
	Src, Edge, Dst string
	Count          int
}

// MineFeatures counts label triples over all edges and returns them in
// descending frequency — the paper's "frequent features" (edges; paths
// arise by composing them during growth).
func MineFeatures(g *graph.Graph) []Feature {
	counts := make(map[[3]graph.LabelID]int)
	for v := 0; v < g.NumNodes(); v++ {
		src := g.NodeLabel(graph.NodeID(v))
		for _, e := range g.Out(graph.NodeID(v)) {
			counts[[3]graph.LabelID{src, e.Label, g.NodeLabel(e.To)}]++
		}
	}
	feats := make([]Feature, 0, len(counts))
	for k, c := range counts {
		feats = append(feats, Feature{
			Src:   g.LabelName(k[0]),
			Edge:  g.LabelName(k[1]),
			Dst:   g.LabelName(k[2]),
			Count: c,
		})
	}
	sort.Slice(feats, func(i, j int) bool {
		if feats[i].Count != feats[j].Count {
			return feats[i].Count > feats[j].Count
		}
		return feats[i].Src+feats[i].Edge+feats[i].Dst < feats[j].Src+feats[j].Edge+feats[j].Dst
	})
	return feats
}

// Pattern generates one QGP from the graph's frequent features. It retries
// internally until the result passes core validation; patterns place ratio
// quantifiers on focus out-edges only, which keeps any focus-anchored path
// within the paper's l = 2 budget by construction.
func Pattern(g *graph.Graph, cfg PatternConfig) *core.Pattern {
	feats := MineFeatures(g)
	if len(feats) == 0 {
		panic("gen: graph has no edges to mine features from")
	}
	// The paper combines the top-5 features as seeds.
	seeds := feats
	if len(seeds) > 25 {
		seeds = seeds[:25]
	}
	bySrc := make(map[string][]Feature)
	byDst := make(map[string][]Feature)
	for _, f := range seeds {
		bySrc[f.Src] = append(bySrc[f.Src], f)
		byDst[f.Dst] = append(byDst[f.Dst], f)
	}

	for attempt := 0; ; attempt++ {
		r := rand.New(rand.NewSource(cfg.Seed + int64(attempt)*7919))
		p := tryPattern(r, cfg, seeds, bySrc, byDst)
		if p != nil {
			return p
		}
		if attempt > 200 {
			panic("gen: could not generate a valid pattern; graph too sparse in features")
		}
	}
}

func tryPattern(r *rand.Rand, cfg PatternConfig, seeds []Feature, bySrc, byDst map[string][]Feature) *core.Pattern {
	p := core.NewPattern()
	// Focus: source label of one of the top seeds (biased to the top).
	seed := seeds[r.Intn(1+r.Intn(len(seeds)))]
	p.AddNode("xo", seed.Src)
	labels := []string{seed.Src}

	// Grow a connected positive part to cfg.Nodes nodes.
	for len(labels) < cfg.Nodes {
		ui := r.Intn(len(labels))
		uName := nodeName(ui)
		var grown bool
		if fs := bySrc[labels[ui]]; len(fs) > 0 && r.Intn(4) != 0 {
			f := fs[r.Intn(len(fs))]
			wName := nodeName(len(labels))
			p.AddNode(wName, f.Dst)
			p.AddEdge(uName, wName, f.Edge, core.Exists())
			labels = append(labels, f.Dst)
			grown = true
		} else if fs := byDst[labels[ui]]; len(fs) > 0 {
			f := fs[r.Intn(len(fs))]
			wName := nodeName(len(labels))
			p.AddNode(wName, f.Src)
			p.AddEdge(wName, uName, f.Edge, core.Exists())
			labels = append(labels, f.Src)
			grown = true
		}
		if !grown {
			return nil
		}
	}

	// Close extra edges up to cfg.Edges using frequent triples between
	// existing nodes.
	for tries := 0; len(p.Edges) < cfg.Edges && tries < 40; tries++ {
		ui, wi := r.Intn(len(labels)), r.Intn(len(labels))
		if ui == wi {
			continue
		}
		var chosen *Feature
		for _, f := range bySrc[labels[ui]] {
			if f.Dst == labels[wi] && !hasEdge(p, ui, wi, f.Edge) {
				chosen = &f
				break
			}
		}
		if chosen == nil {
			continue
		}
		p.AddEdge(nodeName(ui), nodeName(wi), chosen.Edge, core.Exists())
	}

	// Ratio quantifiers on focus out-edges (up to 2; l = 2 by construction).
	quantified := 0
	for i := range p.Edges {
		if p.Edges[i].From == 0 && quantified < 2 {
			p.Edges[i].Q = core.Ratio(core.GE, cfg.RatioBP)
			quantified++
		}
	}
	if quantified == 0 {
		return nil // focus had only in-edges; retry
	}

	// Negated edges: fresh leaf branches hanging off distinct nodes.
	for k := 0; k < cfg.NegEdges; k++ {
		ui := r.Intn(len(labels))
		fs := bySrc[labels[ui]]
		if len(fs) == 0 {
			return nil
		}
		f := fs[r.Intn(len(fs))]
		wName := fmt.Sprintf("neg%d", k)
		p.AddNode(wName, f.Dst)
		p.AddEdge(nodeName(ui), wName, f.Edge, core.Negated())
	}

	if p.Validate() != nil {
		return nil
	}
	if pi, _ := p.Pi(); !pi.Connected() || len(pi.Nodes) != cfg.Nodes {
		return nil
	}
	return p
}

func nodeName(i int) string {
	if i == 0 {
		return "xo"
	}
	return fmt.Sprintf("u%d", i)
}

func hasEdge(p *core.Pattern, from, to int, label string) bool {
	for _, e := range p.Edges {
		if e.From == from && e.To == to && e.Label == label {
			return true
		}
	}
	return false
}
