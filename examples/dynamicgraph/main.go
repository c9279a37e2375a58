// Dynamic graph maintenance: keep a quantified pattern's answer set live
// while the graph changes, re-verifying only the affected region (§5.2
// Remark), and persist the mutation history in a crash-safe store so the
// whole session can be replayed after a restart.
//
// The scenario is social-media marketing: "people who bought at least two
// products" is maintained while follows, purchases and new users stream
// in; every batch is journaled to disk.
//
// Run with: go run ./examples/dynamicgraph
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/store"
)

func main() {
	dir, err := os.MkdirTemp("", "qgp-dynamic-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A disk-backed store persists the ground truth, which lives in memory
	// once: the graph Open hands back, maintained in place...
	st, g, err := store.Open(dir, store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	vg := graph.NewVersioned(g)
	// ...where every batch is applied first and then journaled.
	apply := func(batch ...graph.Mutation) *graph.OldView {
		old, err := vg.Apply(batch)
		if err != nil {
			log.Fatal(err)
		}
		if err := st.Append(batch...); err != nil {
			log.Fatal(err)
		}
		return old
	}

	// Seeded with three people and two products.
	apply(
		graph.AddNode("person"), graph.AddNode("person"), graph.AddNode("person"),
		graph.AddNode("product"), graph.AddNode("product"),
		graph.AddEdge(0, 3, "buy"), // person 0 bought one product
	)

	// The live pattern: buyers of ≥ 2 products.
	q := core.NewPattern()
	q.AddNode("xo", "person")
	q.AddNode("y", "product")
	q.AddEdge("xo", "y", "buy", core.Count(core.GE, 2))

	m, err := dynamic.NewMatcher(vg.Graph(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial answers: %v (person 0 has only 1 purchase)\n", m.Answers())

	// Stream update batches: apply and journal, maintain the matcher over
	// the same graph.
	batches := [][]graph.Mutation{
		{graph.AddEdge(0, 4, "buy")},                             // person 0's second purchase
		{graph.AddEdge(1, 3, "buy"), graph.AddEdge(1, 4, "buy")}, // person 1 buys both
		{graph.RemoveEdge(0, 3, "buy")},                          // person 0 returns one
		{graph.AddNode("person"), graph.AddEdge(5, 3, "buy"), graph.AddEdge(5, 4, "buy")},
	}
	for i, batch := range batches {
		old := apply(batch...)
		delta, err := m.ApplyShared(old, vg.Graph(), nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d: +%v -%v (re-verified %d of %d nodes) -> %v\n",
			i+1, delta.Added, delta.Removed, delta.Affected, m.Graph().NumNodes(), m.Answers())
	}

	// The matcher agrees with recomputation from scratch...
	check, err := match.QMatch(m.Graph(), q, nil)
	if err != nil {
		log.Fatal(err)
	}
	if !equal(m.Answers(), check.Matches) {
		log.Fatalf("incremental %v != recompute %v", m.Answers(), check.Matches)
	}

	// ...and with a cold restart from the journaled store.
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	st2, g2, err := store.Open(dir, store.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	replayed, err := match.QMatch(g2, q, nil)
	if err != nil {
		log.Fatal(err)
	}
	if !equal(m.Answers(), replayed.Matches) {
		log.Fatalf("replayed %v != live %v", replayed.Matches, m.Answers())
	}
	fmt.Printf("after restart+replay (%d journal records applied): %v — consistent\n",
		st2.Recovery().Applied, replayed.Matches)
}

func equal(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
