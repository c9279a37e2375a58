// Parallel quantified matching (§5): serve a social graph from an
// in-process cluster — the coordinator and workers qgpcluster runs, which
// fragment the graph with the d-hop preserving DPar — and evaluate a QGP
// with PQMatch across worker counts, showing the linear reduction in
// per-worker work that the paper's parallel-scalability theorem promises.
//
// Run with: go run ./examples/parallelmatch
package main

import (
	"fmt"
	"log"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/server"
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
	var answers []graph.NodeID
	for _, n := range []int{1, 2, 4, 8} {
		ts := cluster.InProcessN(n, server.Config{})
		c, err := cluster.New(g.Clone(), ts, cluster.Config{D: d})
		if err != nil {
			cluster.CloseAll(ts)
			log.Fatal(err)
		}
		res, err := c.Match(q)
		skew := partition.SkewOf(c.FragmentSizes())
		c.Close()
		if err != nil {
			log.Fatal(err)
		}
		if answers == nil {
			answers = res.Matches
		} else if !slices.Equal(res.Matches, answers) {
			log.Fatalf("n=%d: %d matches, n=1 found %d", n, len(res.Matches), len(answers))
		}
		total, slowest := res.Work()
		if baseline == 0 {
			baseline = slowest
		}
		fmt.Printf("%-4d %-10.2f %-12d %-12d %-8d %.2fx\n",
			n, skew, slowest, total, len(res.Matches), float64(baseline)/float64(slowest))
	}
	fmt.Println("\nsim_work is the critical-path work (the busiest worker's); it")
	fmt.Println("falls roughly linearly in n while the answer stays identical.")
}
