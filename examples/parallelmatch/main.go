// Parallel quantified matching (§5): partition a social graph with the
// d-hop preserving DPar, then evaluate a QGP with PQMatch across worker
// counts, showing the linear reduction in per-worker work that the
// paper's parallel-scalability theorem promises.
//
// Run with: go run ./examples/parallelmatch
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/parallel"
	"repro/internal/partition"
)

func main() {
	g := gen.Social(gen.DefaultSocial(5000, 3))
	fmt.Printf("graph: %s\n", g.ComputeStats())

	// A radius-2 pattern with a ratio aggregate and a negated edge.
	q := core.NewPattern()
	q.AddNode("xo", "person")
	q.AddNode("z", "person")
	q.AddNode("p", "product")
	q.AddNode("bad", "product")
	q.AddEdge("xo", "z", "follow", core.RatioPercent(core.GE, 40))
	q.AddEdge("z", "p", "recom", core.Exists())
	q.AddEdge("xo", "bad", "bad_rating", core.Negated())

	d := core.RequiredHops(q)
	fmt.Printf("pattern radius requires d=%d hop preservation\n\n", d)
	fmt.Printf("%-4s %-10s %-12s %-12s %-8s %s\n",
		"n", "skew", "sim_work", "total_work", "matches", "speedup")

	var baseline int64
	for _, n := range []int{1, 2, 4, 8} {
		part, err := partition.DPar(g, partition.Config{Workers: n, D: d})
		if err != nil {
			log.Fatal(err)
		}
		if err := part.Validate(); err != nil {
			log.Fatalf("partition invariant violated: %v", err)
		}
		cluster := parallel.NewCluster(part)
		res, err := parallel.PQMatch(cluster, q, 2)
		if err != nil {
			log.Fatal(err)
		}
		if baseline == 0 {
			baseline = res.SimWork
		}
		speedup := float64(baseline) / float64(res.SimWork)
		fmt.Printf("%-4d %-10.2f %-12d %-12d %-8d %.2fx\n",
			n, part.Skew(), res.SimWork, res.TotalWork, len(res.Matches), speedup)
	}
	fmt.Println("\nsim_work is the critical-path work (max per thread); it falls")
	fmt.Println("roughly linearly in n while the answer stays identical.")
}
