package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
)

// testPool is a WorkerPool over embedded workers that records every
// session it hands out, so tests can kill replicas and observe
// placement.
type testPool struct {
	mu        sync.Mutex
	endpoints int
	cfg       server.Config // of every worker handed out
	next      int
	handed    []*closeCounting
	avoids    []map[int]bool
}

func newTestPool(endpoints int) *testPool { return &testPool{endpoints: endpoints} }

func (p *testPool) Get(weight int, avoid map[int]bool) (Transport, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ep := p.next % p.endpoints
	p.next++
	t := &closeCounting{Transport: InProcess(p.cfg)}
	p.handed = append(p.handed, t)
	cp := make(map[int]bool, len(avoid))
	for k, v := range avoid {
		cp[k] = v
	}
	p.avoids = append(p.avoids, cp)
	return t, ep, nil
}

func (p *testPool) handedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.handed)
}

// openCount reports how many handed-out sessions are not yet closed.
func (p *testPool) openCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	open := 0
	for _, t := range p.handed {
		if !t.closed.Load() {
			open++
		}
	}
	return open
}

func (p *testPool) kill(i int) {
	p.mu.Lock()
	t := p.handed[i]
	p.mu.Unlock()
	t.Close()
}

// replicaCounts reads each fragment's warm-replica count off its copy list.
func replicaCounts(c *Coordinator) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	counts := make([]int, len(c.workers))
	for i, w := range c.workers {
		counts[i] = len(w.copies) - 1
	}
	return counts
}

// TestReplicatedNewAndPromotion: with Replicas=2 each fragment gets one
// warm replica from the pool; killing a primary mid-stream promotes the
// replica and the cluster keeps answering exactly like a single
// process.
func TestReplicatedNewAndPromotion(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 13))
	pool := newTestPool(4)
	ts := InProcessN(2, server.Config{})
	c, err := New(g, ts, Config{D: 2, Replicas: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if got := replicaCounts(c); !reflect.DeepEqual(got, []int{1, 1}) {
		t.Fatalf("replica counts = %v, want [1 1]", got)
	}
	ref := c.Graph()
	q := mustParse(t, testPatterns[0])
	if _, err := c.Watch("w", q); err != nil {
		t.Fatal(err)
	}

	// Kill worker 0's primary abruptly; the next update must promote
	// the warm replica and report the exact delta.
	ts[0].Close()
	specs := []server.UpdateSpec{{Op: "removeNode", From: 3}}
	res, err := c.Update(specs)
	if err != nil {
		t.Fatalf("Update after primary death: %v", err)
	}
	ref = applySpecs(t, ref, specs)
	if res.Nodes != ref.NumNodes() || res.Edges != ref.NumEdges() {
		t.Fatalf("post-failover counts %d/%d != oracle %d/%d", res.Nodes, res.Edges, ref.NumNodes(), ref.NumEdges())
	}
	got, err := c.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := globalAnswers(t, ref, q); !reflect.DeepEqual(nodeIDs(got.Matches), nodeIDs(want)) {
		t.Fatalf("post-failover answers %v != oracle %v", got.Matches, want)
	}
	// Every probe must be healthy again (the dead primary is gone).
	probes, err := c.Probe()
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range probes {
		if pr.Primary != nil {
			t.Fatalf("fragment %d primary unhealthy after failover: %v", pr.Fragment, pr.Primary)
		}
	}
}

// TestFailoverExhaustsReplicasThenReships: when a fragment's primary
// AND its warm replica are both dead, the operation must still succeed
// via the final re-ship from the authoritative graph — the retry budget
// covers every promotion plus the re-ship (regression: the bound used
// to shrink as failover consumed replicas, stranding the last
// successful re-ship unretried).
func TestFailoverExhaustsReplicasThenReships(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(150, 21))
	pool := newTestPool(4)
	ts := InProcessN(2, server.Config{})
	c, err := New(g, ts, Config{D: 2, Replicas: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ref := c.Graph()

	// Kill fragment 0's primary and its warm replica (the first pool
	// session). With no watches registered, promotion cannot notice the
	// replica is dead until the retried request fails on it.
	ts[0].Close()
	pool.kill(0)

	q := mustParse(t, testPatterns[0])
	got, err := c.Match(q)
	if err != nil {
		t.Fatalf("Match with primary and replica both dead: %v", err)
	}
	if want := globalAnswers(t, ref, q); !reflect.DeepEqual(nodeIDs(got.Matches), nodeIDs(want)) {
		t.Fatalf("answers after double failover %v != oracle %v", got.Matches, want)
	}
}

// TestProtocolErrorDoesNotFailOver: a worker that answers with an error
// response is alive; the coordinator must surface the error without
// killing the worker or consuming replicas or pool sessions.
func TestProtocolErrorDoesNotFailOver(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(120, 5))
	pool := newTestPool(4)
	c, err := New(g, InProcessN(2, server.Config{}), Config{D: 2, Replicas: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	handedBefore := pool.handedCount()

	// An engine the workers do not know never reaches them, so a budget
	// of one extension draws the error response instead.
	q := mustParse(t, testPatterns[0])
	if _, err := c.MatchWith(q, &MatchOptions{Budget: 1}); err == nil {
		t.Fatal("a one-extension budget held")
	} else if !strings.Contains(err.Error(), "budget exceeded") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := pool.handedCount(); got != handedBefore {
		t.Fatalf("protocol error consumed %d pool sessions", got-handedBefore)
	}
	if got := replicaCounts(c); !reflect.DeepEqual(got, []int{1, 1}) {
		t.Fatalf("protocol error consumed replicas: %v", got)
	}
	// The cluster is not failed: real queries still work.
	if _, err := c.Match(q); err != nil {
		t.Fatalf("Match after protocol error: %v", err)
	}
}

// TestReplicaDropAndRepair: a replica that dies is dropped — at the next
// mirrored batch, as a suspect, or by Repair's probe — without disturbing
// the primary's result; every drop is counted and logged alike whatever
// dropped it; and Repair restores the replication factor from the pool.
func TestReplicaDropAndRepair(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int
		// breakTwo breaks one replica of each fragment; with update, a
		// batch runs before Repair, so mirroring can drop them first.
		breakTwo func(c *Coordinator, pool *testPool)
		update   bool
	}{
		{"both dead, then a batch", 2, func(_ *Coordinator, pool *testPool) {
			// The first two pool sessions are the two fragments' replicas.
			pool.kill(0)
			pool.kill(1)
		}, true},
		{"one dead, one suspect", 3, func(c *Coordinator, _ *testPool) {
			c.workers[0].copies[1].t.Close()
			c.workers[1].copies[1].suspect.Store(true)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.Social(gen.DefaultSocial(160, 9))
			pool := newTestPool(4)
			reg := obs.NewRegistry()
			var mu sync.Mutex
			var dropLines []string
			logf := func(format string, args ...interface{}) {
				if line := fmt.Sprintf(format, args...); strings.Contains(line, " dropped: ") {
					mu.Lock()
					dropLines = append(dropLines, line)
					mu.Unlock()
				}
			}
			c, err := New(g, InProcessN(2, server.Config{}), Config{D: 2, Replicas: tc.replicas, Pool: pool, Metrics: reg, Logf: logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			ref := c.Graph()
			q := mustParse(t, testPatterns[0])
			if _, err := c.Watch("w", q); err != nil {
				t.Fatal(err)
			}

			tc.breakTwo(c, pool)
			if tc.update {
				specs := []server.UpdateSpec{
					{Op: "addEdge", From: 1, To: 2, Label: "follow"},
					{Op: "addEdge", From: int64(ref.NumNodes()) - 2, To: int64(ref.NumNodes()) - 1, Label: "follow"},
				}
				res, err := c.Update(specs)
				if err != nil {
					t.Fatalf("Update with dead replicas: %v", err)
				}
				ref = applySpecs(t, ref, specs)
				if res.Nodes != ref.NumNodes() || res.Edges != ref.NumEdges() {
					t.Fatalf("counts %d/%d != oracle %d/%d", res.Nodes, res.Edges, ref.NumNodes(), ref.NumEdges())
				}
			}
			// Only fragments the batch contacted notice their dead mirror at
			// mirror time; Repair drops and replaces the rest.
			drops := reg.Counter("cluster.replica.mirror_drops")
			beforeRepair := drops.Value()
			rep, err := c.Repair()
			if err != nil {
				t.Fatalf("Repair: %v", err)
			}
			want := tc.replicas - 1
			if got := replicaCounts(c); !reflect.DeepEqual(got, []int{want, want}) {
				t.Fatalf("replica counts after Repair = %v, want [%d %d] (report %+v)", got, want, want, rep)
			}
			if rep.Added != 2 || int64(rep.Dropped) != drops.Value()-beforeRepair {
				t.Fatalf("Repair reported %+v; it shipped 2 and dropped %d", rep, drops.Value()-beforeRepair)
			}
			health, _ := c.Health()
			dropped := 0
			for _, fh := range health {
				dropped += fh.Dropped
			}
			if n := drops.Value(); n != 2 || dropped != 2 || len(dropLines) != 2 {
				t.Fatalf("2 replicas dropped: mirror_drops %d, fragments count %d, %d log lines %q", n, dropped, len(dropLines), dropLines)
			}
			// The repaired replicas are faithful mirrors.
			probes, err := c.Probe()
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range probes {
				for i, rerr := range pr.Replicas {
					if rerr != nil {
						t.Fatalf("fragment %d replica %d unhealthy after repair: %v", pr.Fragment, i, rerr)
					}
				}
			}
			if got, err := c.Match(q); err != nil {
				t.Fatal(err)
			} else if want := globalAnswers(t, ref, q); !reflect.DeepEqual(nodeIDs(got.Matches), nodeIDs(want)) {
				t.Fatalf("answers after repair %v != oracle %v", got.Matches, want)
			}
		})
	}
}

// TestPromotedReplicaAdvancesOlderBounds: a warm replica that served reads
// early holds pattern bounds at the graph version of those reads, while
// mirrored batches move its graph on and every later read goes to the
// primary. When the primaries die and the replicas are promoted, their
// sessions must carry those bounds across the batches they missed reading
// — and answer like a single process.
func TestPromotedReplicaAdvancesOlderBounds(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(300, 13))
	replicaMetrics := obs.NewRegistry()
	pool := newTestPool(4)
	pool.cfg = server.Config{Metrics: replicaMetrics}
	ts := counting(InProcessN(2, server.Config{}))
	c, err := New(g, ts, Config{D: 2, Replicas: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	patterns := testPatterns[:3] // >=3, path, negation: all of radius <= 2

	// Bursts of concurrent reads until every fragment's replica served one.
	replicasRead := func() bool {
		for _, counts := range readDistribution(c) {
			if counts[1] == 0 {
				return false
			}
		}
		return true
	}
	for burst := 0; !replicasRead(); burst++ {
		if burst == 50 {
			t.Fatalf("replicas served no read in 50 bursts: %v", readDistribution(c))
		}
		var wg sync.WaitGroup
		for i := 0; i < 12; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := c.Match(mustParse(t, patterns[i%len(patterns)])); err != nil {
					t.Errorf("burst read: %v", err)
				}
			}(i)
		}
		wg.Wait()
	}
	early := replicaMetrics.Snapshot().Counters["server.match.bound_built"]
	if early == 0 {
		t.Fatal("the replicas' sessions bound no pattern")
	}

	ref := c.Graph()
	check := func(what string) {
		t.Helper()
		for i, dsl := range patterns {
			q := mustParse(t, dsl)
			got, err := c.Match(q)
			if err != nil {
				t.Fatalf("%s, pattern %d: %v", what, i, err)
			}
			if want := globalAnswers(t, ref, q); !reflect.DeepEqual(nodeIDs(got.Matches), nodeIDs(want)) {
				t.Fatalf("%s, pattern %d: %d answers, single process %d", what, i, len(got.Matches), len(want))
			}
		}
	}
	persons := ref.NodesByLabelName("person")
	// Small batches: what they touch must stay within the |V|/8 ids a
	// worker session logs, or the replicas would rebuild instead.
	for round := 0; round < 4; round++ {
		a, b := persons[7*round], persons[7*round+3]
		specs := []server.UpdateSpec{
			{Op: "addEdge", From: int64(a), To: int64(b), Label: "follow"},
			{Op: "removeEdge", From: int64(b), To: int64(ref.OutByLabel(b, ref.LookupLabel("follow"))[0].To), Label: "follow"},
			{Op: "addNode", Label: "person"},
		}
		if _, err := c.Update(specs); err != nil {
			t.Fatal(err)
		}
		ref = applySpecs(t, ref, specs)
		check("sequential reads, served by the primaries") // one reader: ties go to the primary
	}
	before := replicaMetrics.Snapshot().Counters

	ts[0].Close()
	ts[1].Close()
	check("after both primaries died")
	after := replicaMetrics.Snapshot().Counters
	if after["server.match.bound_repaired"] == before["server.match.bound_repaired"] {
		t.Fatalf("the promoted replicas repaired no bound: before %v, after %v", before, after)
	}
	specs := []server.UpdateSpec{{Op: "removeNode", From: int64(persons[1])}}
	if _, err := c.Update(specs); err != nil {
		t.Fatal(err)
	}
	ref = applySpecs(t, ref, specs)
	check("one batch after promotion")
}
