package server_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// warmSession is a long-lived session whose bound store is under test,
// beside a mirror of its graph from which a fresh session — no bound, no
// log — is loaded whenever an answer is to be checked.
type warmSession struct {
	t      *testing.T
	c      *client.Client
	addr   string
	reg    *obs.Registry
	mirror *graph.Versioned
	owned  []int64 // non-nil: both sessions hold the graph as a fragment
}

func newWarmSession(t *testing.T, cfg server.Config, g *graph.Graph, owned []int64) *warmSession {
	t.Helper()
	cfg.Metrics = obs.NewRegistry()
	c, addr := startServer(t, cfg)
	w := &warmSession{t: t, c: c, addr: addr, reg: cfg.Metrics, mirror: graph.NewVersioned(g), owned: owned}
	w.load(c)
	return w
}

// load ships the mirror's current state into a session.
func (w *warmSession) load(c *client.Client) {
	w.t.Helper()
	var text strings.Builder
	if _, err := w.mirror.Graph().WriteTo(&text); err != nil {
		w.t.Fatal(err)
	}
	var err error
	if w.owned != nil {
		_, err = c.Do(&server.Request{Cmd: "fragment", Data: text.String(), Owned: w.owned})
	} else {
		_, _, err = c.LoadText(text.String())
	}
	if err != nil {
		w.t.Fatal(err)
	}
}

var wireOp = map[graph.MutationOp]string{
	graph.MutAddNode: "addNode", graph.MutAddEdge: "addEdge", graph.MutRemoveEdge: "removeEdge", graph.MutRemoveNode: "removeNode",
}

func specs(muts []graph.Mutation) []server.UpdateSpec {
	out := make([]server.UpdateSpec, len(muts))
	for i, m := range muts {
		out[i] = server.UpdateSpec{Op: wireOp[m.Op], From: int64(m.From), To: int64(m.To), Label: m.Label}
	}
	return out
}

// update applies a batch to the warm session and to the mirror.
func (w *warmSession) update(muts []graph.Mutation) {
	w.t.Helper()
	if _, _, err := w.c.Update(specs(muts)...); err != nil {
		w.t.Fatalf("update: %v", err)
	}
	if _, _, err := w.mirror.Apply(muts); err != nil {
		w.t.Fatal(err)
	}
}

// check matches pattern on the warm session and on a fresh session loaded
// with the mirror, and demands the same answers and the same work.
func (w *warmSession) check(what, pattern string, opts *client.MatchOptions) {
	w.t.Helper()
	got, err := w.c.Match(pattern, opts)
	if err != nil {
		w.t.Fatalf("%s: warm session: %v", what, err)
	}
	fresh, err := client.Dial(w.addr)
	if err != nil {
		w.t.Fatal(err)
	}
	defer fresh.Close()
	w.load(fresh)
	want, err := fresh.Match(pattern, opts)
	if err != nil {
		w.t.Fatalf("%s: fresh session: %v", what, err)
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) || *got.Metrics != *want.Metrics {
		w.t.Fatalf("%s: warm session gives %d matches %+v, a fresh one %d matches %+v",
			what, len(got.Matches), *got.Metrics, len(want.Matches), *want.Metrics)
	}
}

// outcomes reads the cache's counters: hit, repaired, built, and the live
// gauge.
func (w *warmSession) outcomes() (hit, repaired, built, live int64) {
	snap := w.reg.Snapshot()
	return snap.Counters["server.match.bound_hit"], snap.Counters["server.match.bound_repaired"],
		snap.Counters["server.match.bound_built"], snap.Gauges["server.match.bounds_live"]
}

// wantLive waits for the live-bounds gauge to read want: a closed session
// returns its bounds when the server notices the connection is gone, which
// is after the client's Close returns.
func (w *warmSession) wantLive(what string, want int64) {
	w.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, _, live := w.outcomes()
		if live == want {
			return
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("%s: %d live bounds, want %d", what, live, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func socialGraph() *graph.Graph { return gen.Social(gen.DefaultSocial(300, 3)) }

// TestBoundCacheFollowsUpdates: match → update → match on one session
// equals a fresh session loaded with the post-batch graph, through 60
// churn batches and all three engines, with bounds read at once and bounds
// left a batch or two behind. The engines share one bound per pattern.
func TestBoundCacheFollowsUpdates(t *testing.T) {
	w := newWarmSession(t, server.Config{}, socialGraph(), nil)
	churn := fixture.NewChurn(5)
	reads := []struct {
		pattern int
		opts    *client.MatchOptions
	}{
		{0, nil}, {1, nil}, {2, nil}, {3, nil}, {4, nil}, {5, nil},
		{3, &client.MatchOptions{Engine: "qmatchn"}},
		{1, &client.MatchOptions{Engine: "enum"}},
		{1, &client.MatchOptions{Limit: 5}}, // path2 again: a hit at its version
	}
	for round := 0; round < 60; round++ {
		if round > 0 {
			w.update(churn.Next(w.mirror.Graph()))
		}
		for i, r := range reads {
			if (round+i)%3 == 0 {
				continue // leave some bounds a batch or two behind
			}
			w.check(fmt.Sprintf("round %d, read %d (%s)", round, i, fixture.Mix[r.pattern].Name), fixture.Mix[r.pattern].DSL, r.opts)
		}
	}
	hit, repaired, built, live := w.outcomes()
	// Fresh sessions share the registry: each of their reads is one build.
	// The warm session's own builds are the first read of each of its 6
	// patterns, whatever the engine.
	t.Logf("hit %d, repaired %d, built %d, live %d", hit, repaired, built, live)
	if repaired == 0 || hit == 0 {
		t.Fatalf("outcomes: hit %d, repaired %d, built %d", hit, repaired, built)
	}
	w.wantLive("nine reads over six patterns", 6)
}

// TestBoundCacheRejectedBatch: a batch rejected after it was applied is
// rolled back; the versions it burnt must not leave a bound reading sets
// of the withdrawn state, and the next accepted batch is followed as ever.
func TestBoundCacheRejectedBatch(t *testing.T) {
	g := socialGraph()
	w := newWarmSession(t, server.Config{MaxGraphSize: g.Size() + 3}, g, nil)
	persons := g.NodesByLabelName("person")
	pattern := fixture.Mix[0].DSL
	w.check("before", pattern, nil)
	// Five more nodes and three edges: over the cap, rejected after apply.
	n := int64(g.NumNodes())
	tooBig := []server.UpdateSpec{
		{Op: "addNode", Label: "person"}, {Op: "addNode", Label: "person"}, {Op: "addNode", Label: "person"},
		{Op: "addNode", Label: "person"}, {Op: "addNode", Label: "person"},
		{Op: "addEdge", From: n, To: int64(persons[0]), Label: "follow"},
		{Op: "addEdge", From: n, To: int64(persons[1]), Label: "follow"},
		{Op: "addEdge", From: n, To: int64(persons[2]), Label: "follow"},
	}
	if _, _, err := w.c.Update(tooBig...); err == nil || !strings.Contains(err.Error(), "exceeds server cap") {
		t.Fatalf("oversized batch: err = %v, want the size cap", err)
	}
	w.check("after the rejected batch", pattern, nil)
	w.update([]graph.Mutation{
		{Op: graph.MutRemoveEdge, From: persons[0], To: g.Out(persons[0])[0].To, Label: g.LabelName(g.Out(persons[0])[0].Label)},
	})
	w.check("after the next accepted batch", pattern, nil)
	if _, repaired, _, _ := w.outcomes(); repaired == 0 {
		t.Fatal("the bound was not repaired across the accepted batch")
	}
}

// TestBoundCacheLogOverflow: a pattern read again after the batches in
// between touched more than |V|/8 ids is past the end of the log; it
// rebuilds, and answers right.
func TestBoundCacheLogOverflow(t *testing.T) {
	g := socialGraph()
	w := newWarmSession(t, server.Config{}, g, nil)
	cold, warm := fixture.Mix[1].DSL, fixture.Mix[0].DSL
	w.check("cold pattern, first read", cold, nil)
	persons := g.NodesByLabelName("person")
	touched := 0
	for i := 0; touched <= g.NumNodes()/8; i++ {
		var muts []graph.Mutation
		for j := 0; j < 8; j++ {
			from, to := persons[(16*i+2*j)%len(persons)], persons[(16*i+2*j+1)%len(persons)]
			muts = append(muts, graph.Mutation{Op: graph.MutAddEdge, From: from, To: to, Label: "follow"})
			touched += 2
		}
		w.update(muts)
		w.check(fmt.Sprintf("warm pattern, batch %d", i), warm, nil)
	}
	_, _, builtBefore, _ := w.outcomes()
	got, err := w.c.ProfileMatch(cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, mp := profileOf(t, got); mp.Patterns[0].Bound != "built" {
		t.Fatalf("cold pattern past the log: sets were %q, want built", mp.Patterns[0].Bound)
	}
	if _, _, built, _ := w.outcomes(); built != builtBefore+1 {
		t.Fatalf("cold pattern past the log: bound_built moved by %d, want 1", built-builtBefore)
	}
	w.check("cold pattern, read again", cold, nil)
}

// TestBoundCacheAssign: a bound's sets do not depend on the owned set, so
// assigning more nodes between two matches invalidates nothing.
func TestBoundCacheAssign(t *testing.T) {
	g := socialGraph()
	persons := g.NodesByLabelName("person")
	var owned, more []int64
	for i, v := range persons {
		if i%2 == 0 {
			owned = append(owned, int64(v))
		} else if i%4 == 1 {
			more = append(more, int64(v))
		}
	}
	w := newWarmSession(t, server.Config{}, g, owned)
	for i := range fixture.Mix {
		w.check("owned half, "+fixture.Mix[i].Name, fixture.Mix[i].DSL, nil)
	}
	hit0, _, _, _ := w.outcomes()
	if _, err := w.c.Do(&server.Request{Cmd: "update", Owned: more}); err != nil {
		t.Fatal(err)
	}
	w.owned = append(w.owned, more...)
	for i := range fixture.Mix {
		w.check("owned three quarters, "+fixture.Mix[i].Name, fixture.Mix[i].DSL, nil)
	}
	if hit, _, _, _ := w.outcomes(); hit != hit0+int64(len(fixture.Mix)) {
		t.Fatalf("after assign %d of %d reads hit their bound", hit-hit0, len(fixture.Mix))
	}
}

// TestBoundCacheGraphReplaced: load and fragment replace the graph, and
// every bound over the old one goes with it.
func TestBoundCacheGraphReplaced(t *testing.T) {
	w := newWarmSession(t, server.Config{}, socialGraph(), nil)
	for i := range fixture.Mix {
		w.check("first graph, "+fixture.Mix[i].Name, fixture.Mix[i].DSL, nil)
	}
	w.wantLive("six patterns read", int64(len(fixture.Mix)))
	w.mirror = graph.NewVersioned(gen.Social(gen.DefaultSocial(200, 9)))
	w.load(w.c)
	w.wantLive("after load replaced the graph", 0)
	for i := range fixture.Mix {
		w.check("second graph, "+fixture.Mix[i].Name, fixture.Mix[i].DSL, nil)
	}
	persons := w.mirror.Graph().NodesByLabelName("person")
	for _, v := range persons[:len(persons)/2] {
		w.owned = append(w.owned, int64(v))
	}
	w.load(w.c)
	for i := range fixture.Mix {
		w.check("as a fragment, "+fixture.Mix[i].Name, fixture.Mix[i].DSL, nil)
	}
	// A closed session gives its bounds back to the gauge.
	w.c.Close()
	w.wantLive("after the session closed", 0)
}

// TestBoundCacheEviction: past 64 patterns the least recently read bound
// goes; reading it again rebuilds it, and the gauge never exceeds the cap.
func TestBoundCacheEviction(t *testing.T) {
	w := newWarmSession(t, server.Config{}, socialGraph(), nil)
	pattern := func(k int) string {
		return fmt.Sprintf("qgp\nn xo person *\nn z person\ne xo z follow >=%d\n", k)
	}
	for k := 1; k <= 70; k++ {
		if _, err := w.c.Match(pattern(k), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, built, _ := w.outcomes(); built != 70 {
		t.Fatalf("70 patterns: %d built", built)
	}
	w.wantLive("70 patterns read", 64)
	w.update(fixture.NewChurn(3).Next(w.mirror.Graph()))
	w.check("evicted pattern", pattern(1), nil)
	w.check("kept pattern", pattern(70), nil)
	// Two warm reads — the evicted pattern built, the kept one repaired —
	// and two fresh sessions, one build each.
	if hit, repaired, built, _ := w.outcomes(); built != 73 || repaired != 1 || hit != 0 {
		t.Fatalf("after eviction: hit %d, repaired %d, built %d; want 0, 1, 73", hit, repaired, built)
	}
	w.wantLive("after eviction", 64)
}

// TestProfileReportsBoundOutcome: the profile command says where a match's
// candidate sets came from — built by this request, hit, or repaired
// across an update — and the counters agree.
func TestProfileReportsBoundOutcome(t *testing.T) {
	w := newWarmSession(t, server.Config{}, socialGraph(), nil)
	pattern := fixture.Mix[1].DSL
	origin := func() string {
		t.Helper()
		resp, err := w.c.ProfileMatch(pattern, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, mp := profileOf(t, resp)
		return mp.Patterns[0].Bound
	}
	if o := origin(); o != "built" {
		t.Fatalf("first read: bound = %q, want built", o)
	}
	if o := origin(); o != "hit" {
		t.Fatalf("second read: bound = %q, want hit", o)
	}
	w.update(fixture.NewChurn(3).Next(w.mirror.Graph()))
	if o := origin(); o != "repaired" {
		t.Fatalf("read after an update: bound = %q, want repaired", o)
	}
	if hit, repaired, built, _ := w.outcomes(); hit != 1 || repaired != 1 || built != 1 {
		t.Fatalf("counters: hit %d, repaired %d, built %d, want 1 each", hit, repaired, built)
	}
}

// TestSearchedWatchSharesBound: a searched watch and match reads of its
// pattern text share the session's one bound. The watch builds it and its
// batches advance it, so every read after a batch is a hit: bound_built
// moves once and one bound is live, while the answers — the reads' and
// the watch's — equal a fresh session's at every step. A pinned bound is
// not evicted however many other patterns are read; after Unwatch the
// least-recently-used rule may evict it again, and a read then rebuilds.
func TestSearchedWatchSharesBound(t *testing.T) {
	w := newWarmSession(t, server.Config{}, socialGraph(), nil)
	_, oracleAddr := startServer(t, server.Config{})
	q, err := core.Parse("qgp\nn xo person *\nn z person\ne xo z follow >=1\ne z xo follow >=1\n")
	if err != nil {
		t.Fatal(err)
	}
	cycle := q.String() // the text a watch is keyed by, as the coordinator sends it
	fresh := func() *server.Response {
		t.Helper()
		c, err := client.Dial(oracleAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		w.load(c)
		resp, err := c.Match(cycle, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp, err := w.c.Watch("cycle", cycle)
	if err != nil {
		t.Fatal(err)
	}
	watched := map[int64]bool{}
	for _, v := range resp.Matches {
		watched[v] = true
	}
	churn := fixture.NewChurn(5)
	const rounds = 40
	flips := 0
	for round := 0; round < rounds; round++ {
		if round > 0 {
			muts := churn.Next(w.mirror.Graph())
			resp, err := w.c.UpdateWithDeltas(specs(muts)...)
			if err != nil {
				t.Fatalf("round %d: update: %v", round, err)
			}
			if _, _, err := w.mirror.Apply(muts); err != nil {
				t.Fatal(err)
			}
			for _, d := range resp.Deltas {
				flips += len(d.Added) + len(d.Removed)
				for _, v := range d.Added {
					watched[v] = true
				}
				for _, v := range d.Removed {
					delete(watched, v)
				}
			}
		}
		got, err := w.c.Match(cycle, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := fresh()
		if !reflect.DeepEqual(got.Matches, want.Matches) || *got.Metrics != *want.Metrics {
			t.Fatalf("round %d: warm session gives %d matches %+v, a fresh one %d matches %+v",
				round, len(got.Matches), *got.Metrics, len(want.Matches), *want.Metrics)
		}
		if len(watched) != len(want.Matches) {
			t.Fatalf("round %d: the watch holds %d answers, a fresh read %d", round, len(watched), len(want.Matches))
		}
		for _, v := range want.Matches {
			if !watched[v] {
				t.Fatalf("round %d: the watch misses answer %d", round, v)
			}
		}
		if hit, repaired, built, live := w.outcomes(); hit != int64(round+1) || repaired != 0 || built != 1 || live != 1 {
			t.Fatalf("round %d: hit %d, repaired %d, built %d, live %d; want %d, 0, 1, 1", round, hit, repaired, built, live, round+1)
		}
	}
	if flips == 0 || len(watched) == 0 {
		t.Fatalf("coverage: %d flips, %d answers at the end", flips, len(watched))
	}
	other := func(k int) string {
		return fmt.Sprintf("qgp\nn xo person *\nn z person\ne xo z follow >=%d\n", k)
	}
	for k := 1; k <= 64; k++ {
		if _, err := w.c.Match(other(k), nil); err != nil {
			t.Fatal(err)
		}
	}
	w.wantLive("64 patterns read beside the pinned one", 65)
	if _, err := w.c.Match(cycle, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, built, _ := w.outcomes(); built != 65 {
		t.Fatalf("pinned bound rebuilt: %d built, want 65", built)
	}
	if err := w.c.Unwatch("cycle"); err != nil {
		t.Fatal(err)
	}
	w.wantLive("after Unwatch", 64)
	for k := 65; k <= 128; k++ {
		if _, err := w.c.Match(other(k), nil); err != nil {
			t.Fatal(err)
		}
	}
	_, _, before, _ := w.outcomes()
	if _, err := w.c.Match(cycle, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, built, live := w.outcomes(); built != before+1 || live != 64 {
		t.Fatalf("unwatched bound past the cap: built moved by %d, live %d; want 1, 64", built-before, live)
	}
}
