// Subsystem benchmarks for the extensions beyond the paper's evaluation
// section: the persistent store's write/compact/recover path, bounded
// regular path queries, and statistics collection. The planner and
// incremental-maintenance ablations are internal/bench's Exp-14 and Exp-15
// (bench_test.go wraps them).
package repro

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rpq"
	"repro/internal/stats"
	"repro/internal/store"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return gen.Social(gen.DefaultSocial(2000, 17))
}

// BenchmarkStatsCollect measures the one-pass statistics scan.
func BenchmarkStatsCollect(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Collect(g)
	}
}

// BenchmarkStore measures journaled writes, compaction, and recovery.
func BenchmarkStore(b *testing.B) {
	seed := gen.Social(gen.DefaultSocial(500, 3))

	b.Run("apply-100-edges", func(b *testing.B) {
		dir := b.TempDir()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if err := s.ImportGraph(seed); err != nil {
			b.Fatal(err)
		}
		n := graph.NodeID(seed.NumNodes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			muts := make([]graph.Mutation, 100)
			for j := range muts {
				muts[j] = graph.AddEdge(graph.NodeID((i*100+j))%n, graph.NodeID(i*31+j*7)%n, "follow")
			}
			if _, err := s.Apply(muts...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compact", func(b *testing.B) {
		dir := b.TempDir()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if err := s.ImportGraph(seed); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Apply(graph.AddEdge(graph.NodeID(i%seed.NumNodes()), 0, "follow")); err != nil {
				b.Fatal(err)
			}
			if err := s.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reopen", func(b *testing.B) {
		dir := b.TempDir()
		s, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.ImportGraph(seed); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if _, err := s.Apply(graph.AddEdge(graph.NodeID(i%seed.NumNodes()), graph.NodeID((i*13)%seed.NumNodes()), "follow")); err != nil {
				b.Fatal(err)
			}
		}
		s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s2, err := store.Open(dir, store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if s2.Recovery().Applied != 500 {
				b.Fatalf("recovered %d records", s2.Recovery().Applied)
			}
			s2.Close()
		}
	})
	// Keep the temp roots out of the repo tree even if TempDir cleanup is
	// skipped under -benchtime stress.
	_ = os.RemoveAll(filepath.Join(os.TempDir(), "qgp-bench-none"))
}

// BenchmarkRPQReach measures bounded regular path evaluation on the
// social graph, for a chain, an alternation, and a starred expression.
func BenchmarkRPQReach(b *testing.B) {
	g := benchGraph(b)
	exprs := map[string]*rpq.Expr{
		"chain": rpq.MustParse("follow.follow"),
		"alt":   rpq.MustParse("follow|like|recom"),
		"star":  rpq.MustParse("follow*.buy"),
	}
	for name, e := range exprs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := graph.NodeID(i % g.NumNodes())
				rpq.Reach(g, v, e, 3)
			}
		})
	}
}
