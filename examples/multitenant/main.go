// Multi-tenant demo: one qgpcluster-style front end, one shared
// fragmentation, two named tenant sessions. Alice and Bob each register a
// standing watch under the SAME local name — their namespaces keep the
// watches apart — then Alice mutates the graph: her update response
// carries only her own watch's delta, Bob picks his up with the deltas
// command, and Alice's next match sees her write whichever fragment copy
// replica routing picks: every copy applied it before it was accepted.
//
// The epilogue walks the QoS layer: Carol's oversized update batch
// exhausts her post-paid affected-set budget and her next write is
// refused with a retry-after, while Mallory — who watches but never
// drains — overflows her bounded delta inbox and is told to resync
// rather than being handed an incomplete delta stream.
//
// Run with: go run ./examples/multitenant
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/ha"
	"repro/internal/server"
	"repro/internal/tenant"
)

func main() {
	// The front end owns ONE cluster shared by every connection, with
	// fragment replicas placed from a worker pool for read scale-out.
	pool := ha.NewSpawnPool(4, server.Config{})
	fe := cluster.NewFrontend(cluster.FrontendConfig{
		Cluster:    cluster.Config{D: 2, Replicas: 2, Pool: pool},
		NewWorkers: func() ([]cluster.Transport, error) { return pool.Primaries(2) },
		Tenancy: tenant.Config{
			MaxTenants:  64,
			IdleTimeout: time.Minute,
			// QoS knobs (qgpcluster: -tenant-affected, -tenant-inbox): a
			// tiny post-paid update budget — one real batch drives a
			// tenant's balance negative and its next update is refused
			// with a retry-after — and a 2-id cap on each watch's
			// undrained delta inbox, overflowing to a resync marker.
			AffectedPerSec: 5,
			AffectedBurst:  5,
			MaxPendingIDs:  2,
		},
		Logf: func(string, ...interface{}) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go fe.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := fe.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	addr := ln.Addr().String()
	fmt.Printf("qgpcluster front end on %s\n", addr)

	dial := func(session string) *client.Client {
		c, err := client.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		c.Timeout = 60 * time.Second
		if _, err := c.Session(session); err != nil {
			log.Fatal(err)
		}
		return c
	}
	alice := dial("alice")
	defer alice.Close()
	bob := dial("bob")
	defer bob.Close()

	// Alice loads the graph; Bob sees it immediately — one shared
	// fragmentation, not a cluster per connection.
	nodes, edges, err := alice.Gen("social", 1500, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice generated the shared graph: %d nodes, %d edges\n", nodes, edges)

	pattern := "qgp\nn xo person *\nn z person\ne xo z follow >=3\n"
	if res, err := bob.Match(pattern, nil); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("bob matches the shared graph without loading it: %d answers\n", res.Total)
	}

	// Both tenants watch under the local name "hot": two private watches
	// over one shared coordinator.
	wa, err := alice.Watch("hot", pattern)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := bob.Watch("hot", pattern); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice and bob both watch %q in private namespaces (%d initial answers)\n", "hot", len(wa.Matches))

	// Alice removes one of the answers. Her response carries her own
	// delta; Bob's copy waits in his inbox until he drains it.
	victim := wa.Matches[0]
	res, err := alice.UpdateWithDeltas(server.UpdateSpec{Op: "removeNode", From: victim})
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Deltas) != 1 || res.Deltas[0].Watch != "hot" {
		log.Fatalf("alice's writer delta: %+v", res.Deltas)
	}
	fmt.Printf("alice removed node %d; her update answered with her own delta -%v\n", victim, res.Deltas[0].Removed)

	bd, err := bob.Deltas()
	if err != nil {
		log.Fatal(err)
	}
	if len(bd) != 1 || bd[0].Watch != "hot" {
		log.Fatalf("bob's drained deltas: %+v", bd)
	}
	fmt.Printf("bob drained his namespace's delta: -%v on %q\n", bd[0].Removed, bd[0].Watch)

	// Read-your-writes: every fragment copy applied Alice's write before
	// the front end answered it, so whichever copy serves her next match,
	// the removed node can never reappear.
	post, err := alice.Match(pattern, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range post.Matches {
		if v == victim {
			log.Fatalf("read after her write returned alice's removed answer %d", v)
		}
	}
	fmt.Printf("alice's re-match: %d answers, her removed node gone\n", post.Total)

	// The session list is the tenancy observable: watches, writes, reads.
	infos, err := alice.Sessions()
	if err != nil {
		log.Fatal(err)
	}
	for _, in := range infos {
		fmt.Printf("  session %-6s watches=%d writes=%d reads=%d\n", in.Name, in.Watches, in.Writes, in.Reads)
	}

	// Bob leaves; his watch is unregistered from the shared coordinator,
	// Alice's keeps running.
	if err := bob.EndSession(""); err != nil {
		log.Fatal(err)
	}
	infos, err = alice.Sessions()
	if err != nil {
		log.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "alice" {
		log.Fatalf("session list after bob left: %+v", infos)
	}
	fmt.Println("bob ended his session; alice's watch survives: two tenants, one fragmentation")

	// --- Per-tenant QoS: update budgets, throttling, bounded inboxes ---

	// Mallory watches but never drains her deltas.
	mallory := dial("mallory")
	defer mallory.Close()
	if _, err := mallory.Watch("hot", pattern); err != nil {
		log.Fatal(err)
	}
	if len(post.Matches) < 3 {
		log.Fatalf("only %d answers left; pick another seed", len(post.Matches))
	}

	// Carol removes three answers in one admitted batch. Updates are
	// billed post-paid in affected-set units — the re-verification region
	// the batch actually cost the shared cluster — so this one batch
	// drives her budget far below zero.
	carol := dial("carol")
	defer carol.Close()
	if _, _, err := carol.Update(
		server.UpdateSpec{Op: "removeNode", From: post.Matches[0]},
		server.UpdateSpec{Op: "removeNode", From: post.Matches[1]},
		server.UpdateSpec{Op: "removeNode", From: post.Matches[2]},
	); err != nil {
		log.Fatal(err)
	}
	// Her next update is refused with a typed retry-after on the wire;
	// everyone's reads (and drains) keep flowing.
	_, _, err = carol.Update(server.UpdateSpec{Op: "addEdge", From: 1, To: 2, Label: "follow"})
	var se *client.ServerError
	if !errors.As(err, &se) || se.RetryAfterMS <= 0 {
		log.Fatalf("expected a throttled update with a retry-after, got %v", err)
	}
	fmt.Printf("carol's second update throttled (retry in %.0fms): her first batch's affected-set cost exhausted her budget\n", se.RetryAfterMS)

	// Mallory never drained: three coalesced ids overflowed her 2-id
	// inbox cap, the stale state was dropped, and her drain now carries a
	// resync marker — re-read the answer set, the delta stream has a hole.
	md, err := mallory.Deltas()
	if err != nil {
		log.Fatal(err)
	}
	if len(md) != 1 || md[0].Watch != "hot" || !md[0].Resync {
		log.Fatalf("mallory's drain after overflow: %+v, want a resync marker", md)
	}
	fmt.Println("mallory's undrained inbox overflowed its cap; her drain says resync instead of an incomplete delta")
	resynced, err := mallory.Match(pattern, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mallory resynced by re-matching: %d answers\n", resynced.Total)

	// Throttle and overflow counts ride the session list (and the debug
	// endpoint's tenants rows, and the tenant.<name>.* metric series).
	infos, err = alice.Sessions()
	if err != nil {
		log.Fatal(err)
	}
	for _, in := range infos {
		fmt.Printf("  session %-8s watches=%d throttled=%d overflows=%d pendingIds=%d\n",
			in.Name, in.Watches, in.Throttled, in.Overflows, in.PendingIDs)
	}
}
