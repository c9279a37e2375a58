// Subsystem benchmarks for the extensions beyond the paper's evaluation
// section: the persistent store's write/compact/recover path, bounded
// regular path queries, and statistics collection. The matching-order and
// incremental-maintenance measurements are internal/bench's Exp-14 and
// Exp-15 (bench_test.go wraps them).
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

// BenchmarkStore measures journaled writes, compaction, and recovery. The
// benchmark holds the graph, as the store's callers do: each batch is
// applied to it in place and then appended.
func BenchmarkStore(b *testing.B) {
	seed := gen.Social(gen.DefaultSocial(500, 3))
	// open returns a store over seed's copy and that copy, maintained in
	// place.
	open := func(b *testing.B, dir string) (*store.Store, *graph.Versioned) {
		s, _, err := store.Open(dir, store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		vg := graph.NewVersioned(seed.Clone())
		if err := s.Snapshot(vg.Graph()); err != nil {
			b.Fatal(err)
		}
		return s, vg
	}
	apply := func(b *testing.B, s *store.Store, vg *graph.Versioned, muts ...graph.Mutation) {
		if _, err := vg.Apply(muts); err != nil {
			b.Fatal(err)
		}
		if err := s.Append(muts...); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("apply-100-edges", func(b *testing.B) {
		s, vg := open(b, b.TempDir())
		defer s.Close()
		n := graph.NodeID(seed.NumNodes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			muts := make([]graph.Mutation, 100)
			for j := range muts {
				muts[j] = graph.AddEdge(graph.NodeID((i*100+j))%n, graph.NodeID(i*31+j*7)%n, "follow")
			}
			apply(b, s, vg, muts...)
		}
	})
	b.Run("compact", func(b *testing.B) {
		s, vg := open(b, b.TempDir())
		defer s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			apply(b, s, vg, graph.AddEdge(graph.NodeID(i%seed.NumNodes()), 0, "follow"))
			if err := s.Snapshot(vg.Graph()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reopen", func(b *testing.B) {
		dir := b.TempDir()
		s, vg := open(b, dir)
		for i := 0; i < 500; i++ {
			apply(b, s, vg, graph.AddEdge(graph.NodeID(i%seed.NumNodes()), graph.NodeID((i*13)%seed.NumNodes()), "follow"))
		}
		s.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s2, _, err := store.Open(dir, store.Options{})
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
