package cluster

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/server"
)

// traced runs f under a forced trace, as a profile request does, and
// returns its record.
func traced(f func(tr *obs.Trace) error) (*obs.TraceRecord, error) {
	tr := (*obs.Tracer)(nil).Join("test", 0)
	err := f(tr)
	return tr.Finish(err), err
}

// workerRecords returns the records the workers hung under rec's rtt
// spans, each required to carry rec's trace id.
func workerRecords(t *testing.T, rec *obs.TraceRecord) []*obs.TraceRecord {
	t.Helper()
	var out []*obs.TraceRecord
	for _, sp := range rec.Spans {
		if sp.Name != "rtt" {
			continue
		}
		w := new(obs.TraceRecord)
		if err := json.Unmarshal(sp.Child, w); err != nil || w.ID != rec.ID {
			t.Fatalf("worker %d's rtt span holds no record under trace %d (%v): %s", sp.Worker, rec.ID, err, sp.Child)
		}
		out = append(out, w)
	}
	return out
}

// TestProfileMatchMergedDocument is the cluster acceptance criterion for
// profiled matches: a workers=2 cluster's trace record nests one record
// per worker, consistent with the totals — worker answers sum to the
// merged count, each worker's own time fits inside the round trip that
// waited for it, and the engine profiles they carry sum to the result's
// metrics.
func TestProfileMatchMergedDocument(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(400, 7))
	c := newEmbedded(t, g, 2, Config{D: 2})
	q := mustParse(t, testPatterns[1])

	plain, err := c.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	var res *MatchResult
	rec, err := traced(func(tr *obs.Trace) (err error) {
		res, err = c.matchWith(q, nil, tr)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nodeIDs(res.Matches), nodeIDs(plain.Matches)) {
		t.Fatalf("profiled answers %v != plain answers %v", res.Matches, plain.Matches)
	}
	if rec.Counts["answers"] != len(res.Matches) {
		t.Fatalf("record counts %d answers, want %d", rec.Counts["answers"], len(res.Matches))
	}
	workers := workerRecords(t, rec)
	if len(workers) != 2 {
		t.Fatalf("%d worker records, want 2", len(workers))
	}
	answers := 0
	var metrics match.Metrics
	for i, sp := range rec.Spans[:2] {
		w := workers[i]
		if sp.Worker != i || w.Op != "match" || len(w.Spans) != 1 || w.Spans[0].Name != "match.qmatch" {
			t.Errorf("span %d is worker %d's %+v", i, sp.Worker, w)
		}
		answers += w.Counts["answers"]
		if w.DurMS > sp.DurMS {
			t.Errorf("worker %d took %vms inside a %vms round trip", i, w.DurMS, sp.DurMS)
		}
		if sp.DurMS > rec.DurMS {
			t.Errorf("worker %d rtt %vms exceeds total %vms", i, sp.DurMS, rec.DurMS)
		}
		var mp match.Profile
		if err := json.Unmarshal(w.Attachment, &mp); err != nil || len(mp.Patterns) == 0 {
			t.Errorf("worker %d's engine profile missing (%v): %s", i, err, w.Attachment)
		}
		metrics.Add(mp.Metrics)
	}
	// The aggregate metrics fold exactly as Match's do.
	if metrics != res.Metrics {
		t.Errorf("worker profiles sum to metrics %+v, result %+v", metrics, res.Metrics)
	}
	// Ownership partitions the candidates, so worker answers sum to the
	// merged global count.
	if answers != len(res.Matches) {
		t.Fatalf("worker answers sum to %d, merged count is %d", answers, len(res.Matches))
	}
}

// TestUpdateProfiledWorkRatio is the incremental acceptance criterion: a
// 1-edge batch on a 400-node graph reports an affected count far below
// |V|, equal to the result's and to the sum over the nested records of
// the contacted workers, which alone appear.
func TestUpdateProfiledWorkRatio(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(400, 7))
	c := newEmbedded(t, g, 2, Config{D: 2})
	q := mustParse(t, testPatterns[0])
	if _, err := c.Watch("w", q); err != nil {
		t.Fatal(err)
	}

	// The generator gives 1 -follow-> 2, so removing it is a real change;
	// re-adding it would be a no-op batch, which can flip nobody.
	var res *UpdateResult
	rec, err := traced(func(tr *obs.Trace) (err error) {
		res, err = c.update([]server.UpdateSpec{{Op: "removeEdge", From: 1, To: 2, Label: "follow"}}, tr)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Counts["batch"] != 1 || rec.Counts["nodes"] != c.Graph().NumNodes() || rec.DurMS <= 0 {
		t.Fatalf("record counts %v over %vms, want batch 1 and nodes |V| = %d", rec.Counts, rec.DurMS, c.Graph().NumNodes())
	}
	affected := rec.Counts["affected"]
	if affected != res.AffectedSize {
		t.Fatalf("record counts %d affected, result says %d", affected, res.AffectedSize)
	}
	// work ∝ change: a 1-edge batch must re-verify far less than |V|.
	if affected <= 0 || affected >= rec.Counts["nodes"]/2 {
		t.Fatalf("affected = %d on |V| = %d; want 0 < affected << |V|", affected, rec.Counts["nodes"])
	}
	var rtts []int
	sum := 0
	for _, sp := range rec.Spans {
		if sp.Name == "rtt" {
			rtts = append(rtts, sp.Worker)
			if sp.DurMS <= 0 {
				t.Errorf("worker %d's rtt took %vms", sp.Worker, sp.DurMS)
			}
		}
	}
	for _, w := range workerRecords(t, rec) {
		sum += w.Counts["affected"]
		if w.Op != "update" || w.Counts["batch"] == 0 {
			t.Errorf("worker record is no update's: %+v", w)
		}
	}
	sort.Ints(rtts) // the fan-out records round trips as they end
	if !reflect.DeepEqual(rtts, res.Contacted) || sum != affected {
		t.Fatalf("records of workers %v sum to %d affected; contacted %v, %d affected", rtts, sum, res.Contacted, affected)
	}
	// Profiled and plain updates converge to the same graph state.
	res2, err := c.Update([]server.UpdateSpec{{Op: "addEdge", From: 1, To: 2, Label: "follow"}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Edges != res.Edges+1 {
		t.Fatalf("edge counts diverged: %d after add, %d after profiled remove", res2.Edges, res.Edges)
	}
}

// TestFrontendProfileCommands drives explain and profile through the
// front-end wire protocol with the stock client, so any newline-JSON
// client gets cluster-level EXPLAIN/PROFILE documents.
func TestFrontendProfileCommands(t *testing.T) {
	c := startFrontend(t, 2)
	pattern := testPatterns[0]
	if _, err := c.Explain(pattern); err == nil {
		t.Fatal("explain before gen succeeded")
	}
	if _, _, err := c.Gen("social", 200, 9); err != nil {
		t.Fatal(err)
	}

	raw, err := c.Explain(pattern)
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	var ex ExplainResult
	if err := json.Unmarshal(raw, &ex); err != nil || ex.Workers != 2 || len(ex.Fragments) != 2 {
		t.Fatalf("explain document wrong: %v %s", err, raw)
	}

	plain, err := c.Match(pattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.ProfileMatch(pattern, nil)
	if err != nil {
		t.Fatalf("profile match: %v", err)
	}
	if !reflect.DeepEqual(resp.Matches, plain.Matches) {
		t.Fatalf("profiled matches %v != plain matches %v", resp.Matches, plain.Matches)
	}
	var mp obs.TraceRecord
	if err := json.Unmarshal(resp.Profile, &mp); err != nil || mp.Op != "profile" || mp.Counts["answers"] != resp.Total || len(workerRecords(t, &mp)) != 2 {
		t.Fatalf("match profile document wrong: %v %s", err, resp.Profile)
	}

	uresp, err := c.ProfileUpdate(server.UpdateSpec{Op: "addEdge", From: 0, To: 1, Label: "follow"})
	if err != nil {
		t.Fatalf("profile update: %v", err)
	}
	var up obs.TraceRecord
	if err := json.Unmarshal(uresp.Profile, &up); err != nil || up.Counts["batch"] != 1 {
		t.Fatalf("update profile document wrong: %v %s", err, uresp.Profile)
	}
	if up.Counts["affected"] >= up.Counts["nodes"] {
		t.Fatalf("affected %d not below |V| %d", up.Counts["affected"], up.Counts["nodes"])
	}

	// The coordinator-internal routing field stays rejected on the
	// profile path too.
	if _, err := c.Do(&server.Request{Cmd: "profile",
		Updates: []server.UpdateSpec{{Op: "addEdge", From: 0, To: 1, Label: "follow"}},
		Owned:   server.IDList{0}}); err == nil {
		t.Fatal("profile update with the owned routing field succeeded")
	}
}

// TestFrontendTracesStayLocal: a front end's always-on tracer records every
// request with its per-worker round trips, watch, stats and explain
// included, but only a profile request asks the workers for their records.
// (A watch's round trips are in the coordinator's own watch record.)
func TestFrontendTracesStayLocal(t *testing.T) {
	ring := obs.NewTraceBuffer(64, 0)
	_, c := startFrontendWith(t, FrontendConfig{
		Cluster:    Config{D: 2, Tracer: obs.NewTracer(nil, ring)},
		NewWorkers: func() ([]Transport, error) { return InProcessN(2, server.Config{}), nil },
	})
	pattern := testPatterns[0]
	if _, _, err := c.Gen("social", 200, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Watch("w", pattern); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Match(pattern, nil); err != nil {
		t.Fatal(err)
	}
	// A new node is assigned to a worker, which is contacted.
	if _, _, err := c.Update(server.UpdateSpec{Op: "addNode", Label: "person"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explain(pattern); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProfileMatch(pattern, nil); err != nil {
		t.Fatal(err)
	}
	most := map[string]int{} // the most rtt spans one record of an op holds
	for _, rec := range ring.Snapshot(false, 0) {
		var rtts, nested int
		for _, sp := range rec.Spans {
			if sp.Name == "rtt" {
				rtts++
				if len(sp.Child) > 0 {
					nested++
				}
			}
		}
		want := 0
		if rec.Op == "profile" {
			want = 2
		}
		if nested != want || len(rec.Attachment) > 0 {
			t.Errorf("%s record: %d rtt spans, %d holding a worker record (want %d): %+v", rec.Op, rtts, nested, want, rec)
		}
		most[rec.Op] = max(most[rec.Op], rtts)
	}
	for _, op := range []string{"watch", "match", "stats", "explain", "profile"} {
		if most[op] != 2 {
			t.Errorf("no %s record holds both workers' round trips: %v", op, most)
		}
	}
	if most["update"] == 0 {
		t.Errorf("no update record holds a round trip: %v", most)
	}
}

// TestExplainMerged: explain fans out without executing and returns one
// plan document per fragment.
func TestExplainMerged(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 5))
	c := newEmbedded(t, g, 2, Config{D: 2})
	ex, err := c.explain(mustParse(t, testPatterns[0]), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Op != "explain" || ex.Workers != 2 || len(ex.Fragments) != 2 {
		t.Fatalf("explain document wrong: %+v", ex)
	}
	for i, f := range ex.Fragments {
		var wd server.ExplainDoc
		if err := json.Unmarshal(f.Plan, &wd); err != nil {
			t.Fatalf("fragment %d plan does not parse: %v\n%s", i, err, f.Plan)
		}
		if wd.Plan == nil || len(wd.Plan.Patterns) == 0 {
			t.Errorf("fragment %d plan empty: %s", i, f.Plan)
		}
	}
}
