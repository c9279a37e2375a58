// Server demo: start a qgpd query server in-process, connect with the Go
// client, and run a marketing-analytics session against a generated
// social graph — statistics, a quantified pattern, the d-hop preserving
// partition its parallel evaluation would use, an association rule, and a
// path-constrained refinement.
//
// Run with: go run ./examples/serverdemo
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

func main() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(server.Config{MaxConcurrent: 2})
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	fmt.Printf("qgpd listening on %s\n", ln.Addr())

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 60 * time.Second

	// Generate a session graph on the server.
	nodes, edges, err := c.Gen("social", 2000, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated social graph: %d nodes, %d edges\n", nodes, edges)

	// Inspect its statistics.
	st, err := c.Stats(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d node labels; top edge classes:\n", st.Labels)
	for _, tr := range st.Triples {
		fmt.Println("  " + tr)
	}

	// A quantified pattern: people ≥30% of whose followees recommend a
	// product they themselves buy.
	pattern := `qgp
n xo person *
n z person
n y product
e xo z follow >=30%
e z y recom
e xo y buy
`
	seq, err := c.Match(pattern, &client.MatchOptions{Limit: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matches: %d (showing %v), %.1fms, %d verifications\n",
		seq.Total, seq.Matches, seq.ElapsedMS, seq.Metrics.Verifications)

	// The 2-hop preserving partition a 4-worker cluster (qgpcluster) would
	// serve the query from: each fragment materializes its owned nodes'
	// 2-hop neighbourhoods, so fragments overlap.
	part, err := c.Partition(4, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-worker partition: fragments of %v nodes, skew %.2f\n", part.Fragments, part.Skew)

	// An association rule: "follows ≥3 people who recommend a product" ⇒
	// "buys a product".
	q1 := `qgp
n xo person *
n z person
n y product
e xo z follow >=3
e z y recom
`
	q2 := `qgp
n xo person *
n y product
e xo y buy
`
	rule, err := c.Rule(q1, q2, 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rule support=%d confidence=%.2f lift=%.2f identified=%d\n",
		rule.Support, rule.Confidence, rule.Lift, len(rule.Identified))

	// Path-constrained refinement: matches that reach ≥10 nodes through
	// 1-2 follow hops (influence radius).
	ref, err := c.RPQFilter(pattern, "follow.follow? within 2 >=10")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with influence radius ≥10 within 2 follow-hops: %d matches\n", ref.Total)

	// A standing pattern: big spenders (≥5 purchases), maintained
	// incrementally as updates stream in.
	watch, err := c.Watch("big-spenders", "qgp\nn xo person *\nn y product\ne xo y buy >=5\n")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("watching big spenders: %d initially\n", watch.Total)
	// Person 0 goes on a shopping spree: five purchases of new products.
	var ups []server.UpdateSpec
	for i := 0; i < 5; i++ {
		ups = append(ups,
			server.UpdateSpec{Op: "addNode", Label: "product"},
			server.UpdateSpec{Op: "addEdge", From: 0, To: int64(nodes + i), Label: "buy"})
	}
	up, err := c.UpdateWithDeltas(ups...)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range up.Deltas {
		fmt.Printf("watch %q: +%v -%v (re-verified %d candidates)\n", d.Watch, d.Added, d.Removed, d.Affected)
	}

	fmt.Println("ok")
}
