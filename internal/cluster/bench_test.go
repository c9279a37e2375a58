package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tenant"
)

// The two interleavings no workload of benchmark/ drives, kept as plain
// benchmarks so CI can run one iteration of each under the race detector:
// many tenants reading through replica routing, and a four-worker fan-out
// under sustained multi-op batches. Claims are made on benchmark/, not here.

// BenchmarkReplicaReads: 8 tenants issue read-only matches against a
// 2-worker cluster at replication k=1..3. Every transport carries a
// simulated 8ms round trip, serialized per copy the way one wire session
// is, so throughput is bound by overlapping read streams — what
// replica-read routing buys — rather than by this machine's core count.
// The limited case pays the front end's per-tenant QoS work on every op —
// Admit (token bucket), read count, latency Observe — against limits high
// enough that nothing throttles.
func BenchmarkReplicaReads(b *testing.B) {
	const tenants = 8
	const rtt = 8 * time.Millisecond
	g := gen.Social(gen.DefaultSocial(400, 42))
	q, err := core.Parse("qgp\nn xo person *\nn z person\ne xo z follow >=2\n")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		replicas int
		limited  bool
	}{{1, false}, {2, false}, {3, false}, {3, true}} {
		name := fmt.Sprintf("tenants=%d/replicas=%d", tenants, bc.replicas)
		if bc.limited {
			name += "/limited"
		}
		b.Run(name, func(b *testing.B) {
			prim := make([]Transport, 2)
			for i := range prim {
				prim[i] = &latencyTransport{inner: InProcess(server.Config{}), d: rtt}
			}
			pool := &latencyPool{d: rtt, next: len(prim)}
			c, err := New(g.Clone(), prim, Config{D: 2, Replicas: bc.replicas, Pool: pool})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var tm *tenant.Manager
			if bc.limited {
				tm = tenant.NewManager(tenant.Config{
					RateQPS: 1e9, RateBurst: 1 << 30,
					AffectedPerSec: 1e9, AffectedBurst: 1 << 30,
					Metrics: obs.NewRegistry(),
				}, noopRegistrar{})
			}
			b.SetParallelism(tenants) // tenants × GOMAXPROCS goroutines
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var name string
				if tm != nil {
					var err error
					if name, err = tm.Attach(""); err != nil {
						b.Error(err)
						return
					}
				}
				for pb.Next() {
					if tm != nil {
						if err := tm.Admit(name, "match"); err != nil {
							b.Error(err)
							return
						}
						tm.NoteRead(name)
					}
					start := time.Now()
					if _, err := c.Match(q); err != nil {
						b.Error(err)
						return
					}
					if tm != nil {
						tm.Observe(name, "match", start)
					}
				}
			})
		})
	}
}

// BenchmarkUpdateThroughput: a 4-worker cluster with two standing watches
// absorbs the update-watch schedule (fixture.WatchBatch: 4 follow edges
// inserted, the 4 of four batches ago removed, a person born or tombstoned
// every 8th batch) — steady write pressure through the batched, pipelined
// fan-out (concurrent plan + send per worker) at twice the worker count
// benchmark/'s update-watch runs. Every batch has net edits, so each one
// tests every worker for settled, walks the materialization ball when one
// is not, and plans every worker.
func BenchmarkUpdateThroughput(b *testing.B) {
	const persons = 2000
	g := gen.Social(gen.DefaultSocial(persons, 42))
	base := g.NumNodes()
	patterns := []string{
		"qgp\nn xo person *\nn z person\ne xo z follow >=3\n",
		"qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p bad_rating =0\n",
	}

	c, err := New(g, InProcessN(4, server.Config{}), Config{D: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for i, dsl := range patterns {
		q, err := core.Parse(dsl)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Watch(fmt.Sprintf("w%d", i), q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Update(specsOf(fixture.WatchBatch(persons, base, i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInProcessHop: one benchmark-shaped worker update — 4 follow
// edges in, 4 out, on social persons=4000 — and its reply through
// InProcess, the hop an embedded worker's every request crosses. The
// worker holds no watch, so its own work is the apply, and its reply names
// no watch, as a fragment's does for most batches. Iterations alternate
// the batch and its inverse, so each one changes the graph.
func BenchmarkInProcessHop(b *testing.B) {
	t := InProcess(server.Config{})
	defer t.Close()
	if _, err := t.Do(&server.Request{Cmd: "gen", Kind: "social", Size: 4000, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	var batches [2]server.Batch
	for i := int64(0); i < 8; i++ {
		in, out := "addEdge", "removeEdge"
		if i >= 4 {
			in, out = out, in
		}
		from, to := 97+431*i, 3911-389*i
		batches[0] = append(batches[0], server.UpdateSpec{Op: in, From: from, To: to, Label: "follow"})
		batches[1] = append(batches[1], server.UpdateSpec{Op: out, From: from, To: to, Label: "follow"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Do(&server.Request{Cmd: "update", Updates: batches[i%2]}); err != nil {
			b.Fatal(err)
		}
	}
}

// noopRegistrar satisfies tenant.Registrar for a benchmark manager that
// registers no watches.
type noopRegistrar struct{}

func (noopRegistrar) Watch(string, *core.Pattern) ([]graph.NodeID, error) { return nil, nil }
func (noopRegistrar) Unwatch(string) error                                { return nil }

// latencyTransport models one wire session to a remote worker: requests
// pay a fixed round trip and are serialized per session (a connection is
// an in-order stream), so k copies of a fragment can overlap k reads.
// It deliberately implements neither Endpointer nor ReadTracker — the
// read router then scores copies by their own in-flight counts, the
// dial-pool-without-accounting deployment shape.
type latencyTransport struct {
	mu    sync.Mutex
	inner Transport
	d     time.Duration
}

func (t *latencyTransport) Do(req *server.Request) (*server.Response, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	time.Sleep(t.d)
	return t.inner.Do(req)
}

func (t *latencyTransport) Close() error { return t.inner.Close() }

// latencyPool hands replica sessions out as latency transports on
// distinct synthetic endpoints.
type latencyPool struct {
	mu   sync.Mutex
	d    time.Duration
	next int
}

func (p *latencyPool) Get(weight int, avoid map[int]bool) (Transport, int, error) {
	p.mu.Lock()
	ep := p.next
	p.next++
	p.mu.Unlock()
	return &latencyTransport{inner: InProcess(server.Config{}), d: p.d}, ep, nil
}
