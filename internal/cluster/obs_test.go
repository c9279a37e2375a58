package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/server"
)

func quietLogf(string, ...interface{}) {}

// TestClusterMetrics: one match, one watch and one update on an
// instrumented 2-worker cluster must surface in the registry — the
// per-operation counters, the routed-vs-skipped split covering every
// worker, and the per-worker latency histograms.
func TestClusterMetrics(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 7))
	reg := obs.NewRegistry()
	c := newEmbedded(t, g, 2, Config{D: 2, Metrics: reg, Logf: quietLogf})
	q := mustParse(t, testPatterns[0])

	if _, err := c.Match(q); err != nil {
		t.Fatalf("Match: %v", err)
	}
	if _, err := c.Watch("w", q); err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if _, err := c.Update([]server.UpdateSpec{{Op: "addEdge", From: 0, To: 1, Label: "follow"}}); err != nil {
		t.Fatalf("Update: %v", err)
	}

	s := reg.Snapshot()
	for _, name := range []string{"cluster.match.count", "cluster.update.count", "cluster.watch.count"} {
		if got := s.Counters[name]; got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	// One update batch: every worker is either routed to or skipped.
	routed, skipped := s.Counters["cluster.update.workers_routed"], s.Counters["cluster.update.workers_skipped"]
	if routed+skipped != 2 {
		t.Errorf("workers_routed (%d) + workers_skipped (%d) = %d, want 2", routed, skipped, routed+skipped)
	}
	if routed < 1 {
		t.Errorf("an edge between existing nodes routed to %d workers, want at least 1", routed)
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("cluster.worker.%d.match.ms", i)
		if h, ok := s.Histograms[name]; !ok || h.Count != 1 {
			t.Errorf("%s observed %d times, want 1", name, h.Count)
		}
	}
	if h := s.Histograms["cluster.update.batch_size"]; h.Count != 1 || h.Sum != 1 {
		t.Errorf("cluster.update.batch_size = {count %d, sum %v}, want one observation of 1", h.Count, h.Sum)
	}
	if h := s.Histograms["cluster.update.fanout"]; h.Count != 1 {
		t.Errorf("cluster.update.fanout observed %d times, want 1", h.Count)
	}
}

// obsRing is a single 400-node follow ring: a 1-edge update can only
// affect the d-hop ball around its endpoints, so the affected set is a
// constant independent of |V| — the "work proportional to the change,
// not to the graph" observable.
func obsRing(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("person")
	}
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), "follow")
	}
	g.Finalize()
	return g
}

// TestUpdateAffectedSizeProportionalToChange: a 1-edge batch on a
// 400-node graph must report an affected set that is a small constant,
// not a fraction of |V|, and the registry's affected-size histogram
// must record the same number.
func TestUpdateAffectedSizeProportionalToChange(t *testing.T) {
	const n = 400
	g := obsRing(t, n)
	reg := obs.NewRegistry()
	c := newEmbedded(t, g, 2, Config{D: 2, Metrics: reg, Logf: quietLogf})
	if _, err := c.Watch("w", mustParse(t, "qgp\nn xo person *\nn z person\ne xo z follow >=1\n")); err != nil {
		t.Fatalf("Watch: %v", err)
	}
	res, err := c.Update([]server.UpdateSpec{{Op: "addEdge", From: 5, To: 9, Label: "follow"}})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if res.AffectedSize == 0 {
		t.Fatal("an edge between candidate nodes affected nobody")
	}
	if res.AffectedSize >= n/10 {
		t.Fatalf("1-edge batch affected %d of %d nodes; want ≪ |V| (the d-hop ball around the endpoints)", res.AffectedSize, n)
	}
	snap := reg.Snapshot()
	h := snap.Histograms["cluster.update.affected_size"]
	if h.Count != 1 || h.Sum != float64(res.AffectedSize) {
		t.Fatalf("cluster.update.affected_size = {count %d, sum %v}, want one observation of %d", h.Count, h.Sum, res.AffectedSize)
	}
	// The same invariant as a live gauge: the last batch's re-judged
	// candidates over |V|, in parts per million.
	if got, want := snap.Gauges["cluster.update.affected_ratio"], int64(res.AffectedSize)*1_000_000/n; got != want {
		t.Fatalf("cluster.update.affected_ratio = %d ppm, want %d", got, want)
	}
}

// TestWatchGroupsGauge: cluster.watch.groups follows the distinct
// patterns among the standing watches, not their names, and names sharing
// a pattern receive the same delta.
func TestWatchGroupsGauge(t *testing.T) {
	reg := obs.NewRegistry()
	c := newEmbedded(t, obsRing(t, 60), 2, Config{D: 2, Metrics: reg, Logf: quietLogf})
	groups := func() int64 { return reg.Snapshot().Gauges["cluster.watch.groups"] }
	two := mustParse(t, "qgp\nn xo person *\nn z person\ne xo z follow >=2\n")
	for i, w := range []struct {
		name string
		q    string
		want int64
	}{{"a", "", 1}, {"b", "", 1}, {"c", testPatterns[0], 2}} {
		q := two
		if w.q != "" {
			q = mustParse(t, w.q)
		}
		if _, err := c.Watch(w.name, q); err != nil {
			t.Fatalf("Watch %s: %v", w.name, err)
		}
		if got := groups(); got != w.want {
			t.Fatalf("after %d watches cluster.watch.groups = %d, want %d", i+1, got, w.want)
		}
	}
	res, err := c.Update([]server.UpdateSpec{{Op: "addEdge", From: 5, To: 9, Label: "follow"}})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	byName := make(map[string]server.WatchDelta)
	for _, d := range res.Deltas {
		byName[d.Watch] = d
	}
	if a, b := byName["a"], byName["b"]; len(a.Added) != 1 || a.Added[0] != 5 || !reflect.DeepEqual(a.Added, b.Added) || a.Affected != b.Affected {
		t.Fatalf("names of one pattern got deltas %+v and %+v, want node 5 added under both", a, b)
	}
	for _, w := range []struct {
		name string
		want int64
	}{{"a", 2}, {"b", 1}, {"c", 0}} {
		if err := c.Unwatch(w.name); err != nil {
			t.Fatalf("Unwatch %s: %v", w.name, err)
		}
		if got := groups(); got != w.want {
			t.Fatalf("after unwatching %s cluster.watch.groups = %d, want %d", w.name, got, w.want)
		}
	}
}

// TestMatchMetricsAggregation: a 1-worker cluster is the whole graph on
// one fragment with every candidate owned, so the aggregated per-worker
// engine metrics must equal a single-process run exactly; on 2 workers
// the candidate partition keeps the focus-candidate total identical.
func TestMatchMetricsAggregation(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(300, 11))
	q := mustParse(t, testPatterns[0])

	single, err := match.QMatch(g, q, nil)
	if err != nil {
		t.Fatalf("QMatch: %v", err)
	}

	c1 := newEmbedded(t, g, 1, Config{D: 2, Logf: quietLogf})
	res1, err := c1.Match(q)
	if err != nil {
		t.Fatalf("Match (1 worker): %v", err)
	}
	if !reflect.DeepEqual(res1.Metrics, single.Metrics) {
		t.Errorf("1-worker aggregated metrics %+v != single-process %+v", res1.Metrics, single.Metrics)
	}

	c2 := newEmbedded(t, g, 2, Config{D: 2, Logf: quietLogf})
	res2, err := c2.Match(q)
	if err != nil {
		t.Fatalf("Match (2 workers): %v", err)
	}
	if res2.Metrics.FocusCandidates != single.Metrics.FocusCandidates {
		t.Errorf("2-worker focus candidates %d != single-process %d (ownership partitions the candidates)",
			res2.Metrics.FocusCandidates, single.Metrics.FocusCandidates)
	}
}

// traceSink is a concurrency-safe Logf capture.
type traceSink struct {
	mu    sync.Mutex
	lines []string
}

func (s *traceSink) logf(format string, args ...interface{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lines = append(s.lines, fmt.Sprintf(format, args...))
}

func (s *traceSink) all() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.lines, "\n")
}

// TestClusterTrace: with a tracer configured, every fan-out operation
// emits one structured line carrying its per-worker spans and
// annotations.
func TestClusterTrace(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(150, 5))
	sink := &traceSink{}
	c := newEmbedded(t, g, 2, Config{D: 2, Tracer: obs.NewTracer(sink.logf, nil), Logf: quietLogf})
	q := mustParse(t, testPatterns[0])

	if _, err := c.Match(q); err != nil {
		t.Fatalf("Match: %v", err)
	}
	if _, err := c.Update([]server.UpdateSpec{{Op: "addEdge", From: 0, To: 1, Label: "follow"}}); err != nil {
		t.Fatalf("Update: %v", err)
	}

	out := sink.all()
	for _, want := range []string{"op=match", "op=update", "w0:rtt", "merge", "batch=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

// TestFrontendMetricsCommand: the metrics wire command must return the
// same numbers the registry holds, so a newline-JSON client can scrape
// a cluster without the debug HTTP listener.
func TestFrontendMetricsCommand(t *testing.T) {
	reg := obs.NewRegistry()
	fe := NewFrontend(FrontendConfig{
		Cluster: Config{D: 2, Metrics: reg},
		NewWorkers: func() ([]Transport, error) {
			return InProcessN(2, server.Config{Metrics: reg}), nil
		},
		Logf: quietLogf,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fe.Shutdown(ctx)
	})
	cl, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	if _, _, err := cl.Gen("social", 200, 9); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if _, err := cl.Match(testPatterns[0], nil); err != nil {
		t.Fatalf("match: %v", err)
	}
	if _, _, err := cl.Update(server.UpdateSpec{Op: "addEdge", From: 0, To: 1, Label: "follow"}); err != nil {
		t.Fatalf("update: %v", err)
	}

	resp, err := cl.Do(&server.Request{Cmd: "metrics"})
	if err != nil {
		t.Fatalf("metrics command: %v", err)
	}
	if len(resp.Obs) == 0 {
		t.Fatal("metrics command returned an empty document")
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(resp.Obs, &snap); err != nil {
		t.Fatalf("metrics document does not parse as a snapshot: %v\n%s", err, resp.Obs)
	}
	// The wire numbers are the registry's numbers. The command itself
	// does not touch the cluster counters, so these are stable between
	// the snapshot and the assertion.
	want := reg.Snapshot()
	for _, name := range []string{"cluster.match.count", "cluster.update.count"} {
		if snap.Counters[name] != want.Counters[name] || snap.Counters[name] != 1 {
			t.Errorf("%s over the wire = %d, registry = %d, want 1", name, snap.Counters[name], want.Counters[name])
		}
	}
	// The embedded workers share the registry, so their per-command
	// server metrics ride along in the same document.
	if snap.Counters["server.cmd.match.count"] == 0 {
		t.Error("worker-side server.cmd.match.count missing from the wire snapshot")
	}
	if h, ok := snap.Histograms["cluster.worker.0.update.ms"]; !ok {
		t.Error("per-worker update latency histogram missing from the wire snapshot")
	} else if h.Count == 0 && snap.Histograms["cluster.worker.1.update.ms"].Count == 0 {
		t.Error("no worker recorded an update round trip")
	}
}
