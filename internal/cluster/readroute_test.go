package cluster

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestLeastLoadedCopy: the router picks by read score and skips suspects.
func TestLeastLoadedCopy(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 13))
	pool := newTestPool(4)
	c, err := New(g, InProcessN(2, server.Config{}), Config{D: 2, Replicas: 3, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w := c.workers[0]
	if len(w.copies) != 3 {
		t.Fatalf("expected a primary and 2 warm replicas, got %d copies", len(w.copies))
	}
	// All idle: any copy qualifies; loading the chosen one must steer the
	// next pick elsewhere.
	first := w.leastLoadedCopy()
	first.inflight.Add(5)
	second := w.leastLoadedCopy()
	if second == first {
		t.Fatal("router re-picked the loaded copy")
	}

	// Suspects are skipped outright, however idle.
	w.copies[0].inflight.Add(100) // make the primary maximally unattractive
	w.copies[1].suspect.Store(true)
	w.copies[2].suspect.Store(true)
	if r := w.leastLoadedCopy(); r != w.copies[0] {
		t.Fatal("a suspect replica was picked over the loaded primary")
	}
	w.copies[0].suspect.Store(true)
	if r := w.leastLoadedCopy(); r != nil {
		t.Fatal("all copies suspect, router still picked one")
	}
}

// TestReplicaServesOwnWrite: a read right after an update may be served by
// any copy, because every copy applied the update before it was accepted.
// With the primaries loaded, the replicas serve the next Match, and it
// answers exactly what a single process does on the updated graph.
func TestReplicaServesOwnWrite(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 13))
	pool := newTestPool(4)
	c, err := New(g.Clone(), InProcessN(2, server.Config{}), Config{D: 2, Replicas: 3, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := mustParse(t, testPatterns[0])
	before, err := c.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Matches) == 0 {
		t.Fatal("pattern has no answers; pick another seed")
	}
	specs := []server.UpdateSpec{{Op: "removeNode", From: int64(before.Matches[0])}}
	if _, err := c.Update(specs); err != nil {
		t.Fatal(err)
	}
	ref := applySpecs(t, g, specs)

	for _, w := range c.workers {
		w.copies[0].inflight.Add(100)
	}
	pre := c.ReadDistribution()
	got, err := c.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := globalAnswers(t, ref, q); !reflect.DeepEqual(nodeIDs(got.Matches), nodeIDs(want)) {
		t.Fatalf("read after the write = %v, single process %v", got.Matches, want)
	}
	post := c.ReadDistribution()
	for i := range post {
		served := int64(0)
		for j := 1; j < len(post[i]); j++ {
			served += post[i][j] - pre[i][j]
		}
		if post[i][0] != pre[i][0] || served != 1 {
			t.Fatalf("fragment %d: the read was not served by a replica (%v -> %v)", i, pre[i], post[i])
		}
	}
}

// TestReadsSpreadAcrossCopies: a burst of concurrent Match calls must
// not pile onto one copy — with k=3 every copy of some fragment serves
// reads.
func TestReadsSpreadAcrossCopies(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(300, 13))
	pool := newTestPool(6)
	c, err := New(g, InProcessN(2, server.Config{}), Config{D: 2, Replicas: 3, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := mustParse(t, testPatterns[0])
	want, err := c.Match(q)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Match(q)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Matches) != len(want.Matches) {
				errs <- errReadFailover // any sentinel; we just need a failure
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent match: %v", err)
	}

	dist := c.ReadDistribution()
	spread := false
	for _, counts := range dist {
		busy := 0
		for _, n := range counts {
			if n > 0 {
				busy++
			}
		}
		if busy >= 2 {
			spread = true
		}
	}
	if !spread {
		t.Fatalf("64 concurrent reads all served by one copy per fragment: %v", dist)
	}
}

// TestReadFailoverKeepsProfile: a profiled match that trips read
// failover still returns a full trace record: one worker record per
// fragment, from the fan-out that answered, and the answers count.
// Regression: the failed first attempt returns (nil, nil, err), and
// matchWith used to let that nil overwrite the profile pointer, so the
// write-locked retry ran an unprofiled match.
func TestReadFailoverKeepsProfile(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 13))
	pool := newTestPool(6)
	c, err := New(g, InProcessN(2, server.Config{}), Config{D: 2, Replicas: 2, Pool: pool,
		Metrics: obs.NewRegistry(), Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := mustParse(t, testPatterns[0])

	for _, r := range c.workers[0].copies {
		r.t.Close()
	}
	var res *MatchResult
	rec, err := traced(func(tr *obs.Trace) (err error) {
		res, err = c.matchWith(q, nil, tr)
		return err
	})
	if err != nil {
		t.Fatalf("profiled match after killing every copy of fragment 0: %v", err)
	}
	if c.om.readFallbacks.Value() == 0 {
		t.Fatal("profiled match did not trip the read-failover retry; the test exercised nothing")
	}
	answers := 0
	for _, w := range workerRecords(t, rec) {
		answers += w.Counts["answers"]
	}
	if n := len(workerRecords(t, rec)); n != 2 {
		t.Fatalf("record nests %d worker records, want 2", n)
	}
	if rec.Counts["answers"] != len(res.Matches) || answers != len(res.Matches) {
		t.Fatalf("record reports %d answers, its workers %d, the result has %d", rec.Counts["answers"], answers, len(res.Matches))
	}
}

// TestReadFailoverFallback: killing every copy of a fragment makes the
// lock-free read path fail over to the write-locked path, which repairs
// the cluster from the pool. Match, Explain and Stats all recover through
// that one path (routedRead): each call answers exactly what it answered
// before the kill and counts exactly one fallback.
func TestReadFailoverFallback(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 13))
	pool := newTestPool(12)
	reg := obs.NewRegistry()
	c, err := New(g, InProcessN(2, server.Config{}), Config{D: 2, Replicas: 2, Pool: pool,
		Metrics: reg, Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := mustParse(t, testPatterns[0])
	fallbacks := reg.Counter("cluster.read.fallbacks")

	ops := []struct {
		name string
		run  func() (interface{}, error)
	}{
		{"Match", func() (interface{}, error) {
			res, err := c.Match(q)
			if err != nil {
				return nil, err
			}
			return res.Matches, nil
		}},
		{"Explain", func() (interface{}, error) { return c.Explain(q) }},
		{"Stats", func() (interface{}, error) {
			st, err := c.Stats()
			if err != nil {
				return nil, err
			}
			sort.Slice(st.Rows, func(i, j int) bool {
				a, b := st.Rows[i], st.Rows[j]
				return a.Src+"|"+a.Edge+"|"+a.Dst < b.Src+"|"+b.Edge+"|"+b.Dst
			})
			return st, nil
		}},
	}
	for _, op := range ops {
		want, err := op.run()
		if err != nil {
			t.Fatalf("%s on the healthy cluster: %v", op.name, err)
		}
		// Kill fragment 0 outright: primary transport and every warm
		// replica (none after an earlier iteration's re-ship).
		for _, r := range c.workers[0].copies {
			r.t.Close()
		}
		before := fallbacks.Value()
		got, err := op.run()
		if err != nil {
			t.Fatalf("%s after killing every copy of fragment 0: %v", op.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s diverged across read failover:\n got %+v\nwant %+v", op.name, got, want)
		}
		if n := fallbacks.Value() - before; n != 1 {
			t.Fatalf("%s took the fallback path %d times, want exactly 1", op.name, n)
		}
	}
}
