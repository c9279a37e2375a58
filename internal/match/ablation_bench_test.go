package match

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Ablation benchmarks for QMatch's design choices (DESIGN.md §4): each
// lever — the quantifier-threshold acceptance filter, early acceptance,
// incremental negation handling — is toggled independently against the
// same seeded workload; simulation-based candidate filtering is on in
// every variant, the Enum baseline's included. Run with
//
//	go test -bench=Ablation -benchmem ./internal/match/

func ablationWorkload(b *testing.B) (*graph.Graph, *core.Pattern) {
	b.Helper()
	g := gen.Social(gen.DefaultSocial(1200, 7))
	q := gen.Pattern(g, gen.PatternConfig{Nodes: 5, Edges: 6, RatioBP: 4000, NegEdges: 1, Seed: 3})
	return g, q
}

func runAblation(b *testing.B, e Engine) {
	g, q := ablationWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prepareRun(g, q, nil, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationFull(b *testing.B) {
	runAblation(b, quantFilter|earlyAccept|incremental)
}

func BenchmarkAblationNoQuantFilter(b *testing.B) {
	runAblation(b, earlyAccept|incremental)
}

func BenchmarkAblationNoEarlyAccept(b *testing.B) {
	runAblation(b, quantFilter|incremental)
}

func BenchmarkAblationNoIncremental(b *testing.B) {
	runAblation(b, quantFilter|earlyAccept)
}

func BenchmarkAblationNone(b *testing.B) {
	runAblation(b, 0)
}

// TestAblationConfigsAgree pins the ablation benchmarks to identical
// answers: every lever is a pure optimization.
func TestAblationConfigsAgree(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(600, 7))
	q := gen.Pattern(g, gen.PatternConfig{Nodes: 4, Edges: 5, RatioBP: 4000, NegEdges: 1, Seed: 3})
	configs := []Engine{
		quantFilter | earlyAccept | incremental,
		earlyAccept | incremental,
		quantFilter | incremental,
		quantFilter | earlyAccept,
		0,
	}
	var want []graph.NodeID
	for i, e := range configs {
		res, err := prepareRun(g, q, nil, e)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if i == 0 {
			want = res.Matches
			continue
		}
		if len(res.Matches) != len(want) {
			t.Fatalf("config %d: %d matches, config 0: %d", i, len(res.Matches), len(want))
		}
		for j := range want {
			if res.Matches[j] != want[j] {
				t.Fatalf("config %d disagrees at %d", i, j)
			}
		}
	}
}
