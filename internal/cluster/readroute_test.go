package cluster

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestLeastLoadedCopy: the router picks by read score, skips suspects,
// and honors the version fence (primary always eligible).
func TestLeastLoadedCopy(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 13))
	pool := newTestPool(4)
	c, err := New(g, InProcessN(2, server.Config{}), Config{D: 2, Replicas: 3, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	w := c.workers[0]
	if len(w.replicas) != 2 {
		t.Fatalf("expected 2 warm replicas, got %d", len(w.replicas))
	}
	// All idle: any copy qualifies; loading the chosen one must steer the
	// next pick elsewhere.
	first := w.leastLoadedCopy(0)
	atomic.AddInt64(&first.inflight, 5)
	second := w.leastLoadedCopy(0)
	if second == first {
		t.Fatal("router re-picked the loaded copy")
	}

	// Fence: replicas below minV are ineligible, the primary always is.
	w.replicas[0].version = 3
	w.replicas[1].version = 7
	atomic.AddInt64(&w.primary.inflight, 100) // make the primary maximally unattractive
	if r := w.leastLoadedCopy(5); r != w.replicas[1] {
		t.Fatalf("fenced pick chose a copy at version %d, want the one at 7", r.version)
	}
	if r := w.leastLoadedCopy(9); r != w.primary {
		t.Fatal("fence past every replica must degrade to the primary")
	}

	// Suspects are skipped outright.
	w.replicas[1].suspect.Store(true)
	if r := w.leastLoadedCopy(5); r != w.primary {
		t.Fatal("suspect replica served a fenced read")
	}
	w.primary.suspect.Store(true)
	w.replicas[0].suspect.Store(true)
	if r := w.leastLoadedCopy(0); r != nil {
		t.Fatal("all copies suspect, router still picked one")
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

// TestMinVersionRestrictsReplicas: a fenced match (MinVersion ahead of
// every replica) is served — by primaries — and an unfenced one still
// routes freely. Exercises the MatchOptions plumbing end to end.
func TestMinVersionRestrictsReplicas(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 13))
	pool := newTestPool(4)
	c, err := New(g, InProcessN(2, server.Config{}), Config{D: 2, Replicas: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := mustParse(t, testPatterns[0])

	res, err := c.Update([]server.UpdateSpec{{Op: "addEdge", From: 1, To: 2, Label: "follow"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || c.Version() != 1 {
		t.Fatalf("version token %d / coordinator %d, want 1/1", res.Version, c.Version())
	}

	// Artificially stale every replica; a read fenced at the token must
	// fall back to primaries and still succeed.
	for _, w := range c.workers {
		for _, r := range w.replicas {
			r.version = 0
		}
	}
	pre := c.ReadDistribution()
	if _, err := c.MatchWith(q, &MatchOptions{MinVersion: res.Version}); err != nil {
		t.Fatalf("fenced match: %v", err)
	}
	post := c.ReadDistribution()
	for i := range post {
		if post[i][0] != pre[i][0]+1 {
			t.Fatalf("fragment %d: fenced read did not go to the primary (%v -> %v)", i, pre[i], post[i])
		}
		for j := 1; j < len(post[i]); j++ {
			if post[i][j] != pre[i][j] {
				t.Fatalf("fragment %d: stale replica served a fenced read", i)
			}
		}
	}
}

// TestReadFailoverKeepsProfile: a profiled match that trips read
// failover still returns a profile document. Regression: the failed
// first attempt returns (nil, nil, err), and matchWith used to let that
// nil overwrite the profile pointer, so the write-locked retry ran an
// unprofiled match and handleProfile serialized Profile as JSON null.
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

	c.workers[0].primary.t.Close()
	for _, r := range c.workers[0].replicas {
		r.t.Close()
	}
	prof := &MatchProfile{}
	res, err := c.matchWith(q, nil, prof)
	if err != nil {
		t.Fatalf("profiled match after killing every copy of fragment 0: %v", err)
	}
	if c.om.readFallbacks.Value() == 0 {
		t.Fatal("profiled match did not trip the read-failover retry; the test exercised nothing")
	}
	if prof == nil {
		t.Fatal("profile document lost across the read-failover retry")
	}
	if prof.Workers != 2 || len(prof.Fragments) != 2 {
		t.Fatalf("profile covers %d workers / %d fragments, want 2/2", prof.Workers, len(prof.Fragments))
	}
	if prof.Matches != len(res.Matches) {
		t.Fatalf("profile reports %d matches, result has %d", prof.Matches, len(res.Matches))
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
			st, err := c.Stats(0)
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
		w := c.workers[0]
		w.primary.t.Close()
		for _, r := range w.replicas {
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
