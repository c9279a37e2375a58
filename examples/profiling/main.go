// Profiling walkthrough: EXPLAIN a query before running it, PROFILE the
// execution, compare the order's class sizes with the observed candidate
// counts, then profile an incremental update and read the work∝change
// ratio off its trace record. Runs a qgpd server in-process and drives it
// with the stock client — everything shown here works identically over
// the wire against `qgpd` or `qgpcluster`.
//
// Run with: go run ./examples/profiling
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/server"
)

const pattern = `qgp
n xo person *
n z person
n y product
e xo z follow >=2
e z y buy
`

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

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 60 * time.Second

	if _, _, err := c.Gen("social", 2000, 42); err != nil {
		log.Fatal(err)
	}

	// EXPLAIN: which order would the engine run, ranked by which class sizes?
	raw, err := c.Explain(pattern)
	if err != nil {
		log.Fatal(err)
	}
	var ex server.ExplainDoc
	if err := json.Unmarshal(raw, &ex); err != nil {
		log.Fatal(err)
	}
	for _, pp := range ex.Plan.Patterns {
		fmt.Printf("explain %s: order=%v class sizes=%v\n", pp.Pattern, pp.Order, pp.Class)
	}

	// PROFILE: execute traced. The document is the request's trace record:
	// timed spans, counts, and the engine's own profile as the attachment.
	resp, err := c.ProfileMatch(pattern, nil)
	if err != nil {
		log.Fatal(err)
	}
	var rec obs.TraceRecord
	if err := json.Unmarshal(resp.Profile, &rec); err != nil {
		log.Fatal(err)
	}
	var mp match.Profile
	if err := json.Unmarshal(rec.Attachment, &mp); err != nil || len(mp.Patterns) == 0 {
		log.Fatalf("profile document has no stage entries (%v): %s", err, resp.Profile)
	}
	pi := mp.Patterns[0]
	fmt.Printf("profile %s: %d matches in %.2fms (compile %.2fms, eval %.2fms), order=%v\n",
		pi.Pattern, pi.Answers, rec.DurMS, pi.CompileMS, pi.EvalMS, pi.Order)
	for _, n := range pi.Nodes {
		fmt.Printf("  node %-3s candidates=%-5d accepted=%d\n", n.Name, n.Candidates, n.Accepted)
		if n.Accepted > n.Candidates {
			log.Fatalf("acceptance filter grew the candidate set for %s", n.Name)
		}
	}
	if rec.Counts["answers"] != resp.Total {
		log.Fatalf("document reports %d matches, response %d", rec.Counts["answers"], resp.Total)
	}

	// PROFILE an update: register a standing watch, apply a small batch,
	// and verify the incremental claim — the affected region stays far
	// below |V|, so maintenance work is proportional to the change. The
	// affected candidates are found by walking the pattern's own labels
	// and directions back from the changed edge: for this watch only the
	// source of the inserted follow edge can flip, however large the
	// undirected ball around its endpoints is on a dense social graph.
	const watchPattern = "qgp\nn xo person *\nn z person\ne xo z follow >=3\n"
	if _, err := c.Watch("campaign", watchPattern); err != nil {
		log.Fatal(err)
	}
	uresp, err := c.ProfileUpdate(
		server.UpdateSpec{Op: "addEdge", From: 1, To: 2, Label: "follow"},
	)
	if err != nil {
		log.Fatal(err)
	}
	var up obs.TraceRecord
	if err := json.Unmarshal(uresp.Profile, &up); err != nil {
		log.Fatal(err)
	}
	affected, nodes := up.Counts["affected"], up.Counts["nodes"]
	fmt.Printf("update profile: batch=%d edits=%d affected=%d of %d nodes (work ratio %.4f)\n",
		up.Counts["batch"], up.Counts["edits"], affected, nodes, float64(affected)/float64(nodes))
	for _, sp := range up.Spans {
		fmt.Printf("  %s %.3fms\n", sp.Name, sp.DurMS)
	}
	if affected >= nodes/2 {
		log.Fatalf("1-edge batch re-verified %d of %d nodes; incremental path broken", affected, nodes)
	}
	fmt.Println("profiling ok: work proportional to the change")
}
