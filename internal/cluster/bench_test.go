package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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
			c, err := New(g, prim, Config{D: 2, Replicas: bc.replicas, Pool: pool})
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
// absorbs 8-op batches mixing edge churn with periodic node add/remove —
// steady write pressure through the batched, pipelined fan-out (concurrent
// plan + send per worker) at twice the worker count benchmark/'s
// update-watch runs.
func BenchmarkUpdateThroughput(b *testing.B) {
	const graphSize = 2000
	const opsPerBatch = 8
	g := gen.Social(gen.DefaultSocial(graphSize, 42))
	patterns := []string{
		"qgp\nn xo person *\nn z person\ne xo z follow >=3\n",
		"qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p bad_rating =0\n",
	}

	// Batch i: opsPerBatch edge ops walking a pseudo-random schedule;
	// every op at slot 2k+1 removes the edge slot 2k added, so the graph
	// stays bounded over arbitrarily many iterations. Every 16th batch
	// additionally churns one node: add a fresh person, then tombstone it
	// on the following multiple of 16 — node count grows slowly (the
	// tombstone keeps the slot) but edge mass stays flat.
	batchFor := func(i int) []server.UpdateSpec {
		specs := make([]server.UpdateSpec, 0, opsPerBatch+1)
		for j := 0; j < opsPerBatch; j++ {
			s := i*opsPerBatch + j
			k := s / 2
			from := int64((k*7919 + 13) % graphSize)
			to := int64((k*104729 + 31) % graphSize)
			if from == to {
				to = (to + 1) % graphSize
			}
			op := "addEdge"
			if s%2 == 1 {
				op = "removeEdge"
			}
			specs = append(specs, server.UpdateSpec{Op: op, From: from, To: to, Label: "follow"})
		}
		if i%16 == 0 {
			specs = append(specs, server.UpdateSpec{Op: "addNode", Label: "person"})
		} else if i%16 == 8 {
			specs = append(specs, server.UpdateSpec{Op: "removeNode", From: int64((i/16)%graphSize) + 100})
		}
		return specs
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
		if _, err := c.Update(batchFor(i)); err != nil {
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
