package cluster

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/server"
)

// TestProfileMatchMergedDocument is the cluster acceptance criterion for
// profiled matches: a workers=2 cluster returns one merged document whose
// per-fragment stages are consistent with the totals — fragment answers
// sum to the merged count, per-fragment compute fits inside the measured
// round trip, and each embedded worker document parses as the server's
// own profile shape.
func TestProfileMatchMergedDocument(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(400, 7))
	c := newEmbedded(t, g, 2, Config{D: 2})
	q := mustParse(t, testPatterns[1])

	plain, err := c.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	prof := &MatchProfile{}
	res, err := c.matchWith(q, nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nodeIDs(res.Matches), nodeIDs(plain.Matches)) {
		t.Fatalf("profiled answers %v != plain answers %v", res.Matches, plain.Matches)
	}
	if prof.Op != "match" || prof.Engine != "qmatch" || prof.Workers != 2 {
		t.Fatalf("profile header wrong: %+v", prof)
	}
	if prof.Matches != len(res.Matches) {
		t.Fatalf("prof.Matches = %d, want %d", prof.Matches, len(res.Matches))
	}
	if len(prof.Fragments) != 2 {
		t.Fatalf("fragments = %d, want 2", len(prof.Fragments))
	}
	answers := 0
	for i, f := range prof.Fragments {
		if f.Worker != i {
			t.Errorf("fragment %d has worker id %d", i, f.Worker)
		}
		answers += f.Answers
		if f.ComputeMS > f.RTTMS {
			t.Errorf("fragment %d compute %vms exceeds round trip %vms", i, f.ComputeMS, f.RTTMS)
		}
		if f.RTTMS > prof.TotalMS {
			t.Errorf("fragment %d rtt %vms exceeds total %vms", i, f.RTTMS, prof.TotalMS)
		}
		// The embedded worker document is the server's own profile shape.
		var wd server.MatchProfileDoc
		if err := json.Unmarshal(f.Profile, &wd); err != nil {
			t.Fatalf("fragment %d profile does not parse: %v\n%s", i, err, f.Profile)
		}
		if wd.Op != "match" || wd.Profile == nil {
			t.Errorf("fragment %d worker document incomplete: %s", i, f.Profile)
		}
		if wd.Matches != f.Answers {
			t.Errorf("fragment %d worker reports %d matches, coordinator saw %d", i, wd.Matches, f.Answers)
		}
	}
	// Ownership partitions the candidates, so fragment answers sum to the
	// merged global count.
	if answers != prof.Matches {
		t.Fatalf("fragment answers sum to %d, merged count is %d", answers, prof.Matches)
	}
	// The aggregate metrics fold exactly as Match's do.
	if prof.Metrics != res.Metrics {
		t.Fatalf("profile metrics %+v != result metrics %+v", prof.Metrics, res.Metrics)
	}
	// The whole document serializes.
	if _, err := json.Marshal(prof); err != nil {
		t.Fatalf("marshal merged profile: %v", err)
	}
}

// TestUpdateProfiledWorkRatio is the incremental acceptance criterion: a
// 1-edge batch on a 400-node graph reports an affected region far below
// |V| and stage timings for the contacted workers only.
func TestUpdateProfiledWorkRatio(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(400, 7))
	c := newEmbedded(t, g, 2, Config{D: 2})
	q := mustParse(t, testPatterns[0])
	if _, err := c.Watch("w", q); err != nil {
		t.Fatal(err)
	}

	// The generator gives 1 -follow-> 2, so removing it is a real change;
	// re-adding it would be a no-op batch, which can flip nobody.
	prof := &UpdateProfile{}
	res, err := c.update([]server.UpdateSpec{
		{Op: "removeEdge", From: 1, To: 2, Label: "follow"},
	}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Op != "update" || prof.BatchSize != 1 {
		t.Fatalf("profile header wrong: %+v", prof)
	}
	if prof.Nodes != c.Graph().NumNodes() {
		t.Fatalf("prof.Nodes = %d, want |V| = %d", prof.Nodes, c.Graph().NumNodes())
	}
	if prof.AffectedSize != res.AffectedSize {
		t.Fatalf("prof.AffectedSize = %d, result says %d", prof.AffectedSize, res.AffectedSize)
	}
	// work ∝ change: a 1-edge batch must re-verify far less than |V|.
	if prof.AffectedSize <= 0 || prof.AffectedSize >= prof.Nodes/2 {
		t.Fatalf("AffectedSize = %d on |V| = %d; want 0 < affected << |V|", prof.AffectedSize, prof.Nodes)
	}
	if prof.WorkRatio <= 0 || prof.WorkRatio >= 0.5 {
		t.Fatalf("WorkRatio = %v, want well below 1", prof.WorkRatio)
	}
	if prof.TotalMS <= 0 || prof.FanoutMS <= 0 {
		t.Fatalf("stage timings missing: %+v", prof)
	}
	if len(prof.Workers) != len(res.Contacted) {
		t.Fatalf("profile has %d worker entries, result contacted %d", len(prof.Workers), len(res.Contacted))
	}
	for i, wp := range prof.Workers {
		if wp.Worker != res.Contacted[i] {
			t.Errorf("worker entry %d is for worker %d, contacted order says %d", i, wp.Worker, res.Contacted[i])
		}
		if wp.RTTMS <= 0 {
			t.Errorf("worker %d missing rtt", wp.Worker)
		}
		var wd server.UpdateProfileDoc
		if err := json.Unmarshal(wp.Profile, &wd); err != nil {
			t.Fatalf("worker %d profile does not parse: %v\n%s", wp.Worker, err, wp.Profile)
		}
		if wd.Op != "update" {
			t.Errorf("worker %d document wrong (want an update): %s", wp.Worker, wp.Profile)
		}
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
	var mp MatchProfile
	if err := json.Unmarshal(resp.Profile, &mp); err != nil || mp.Workers != 2 || mp.Matches != resp.Total {
		t.Fatalf("match profile document wrong: %v %s", err, resp.Profile)
	}

	uresp, err := c.ProfileUpdate(server.UpdateSpec{Op: "addEdge", From: 0, To: 1, Label: "follow"})
	if err != nil {
		t.Fatalf("profile update: %v", err)
	}
	var up UpdateProfile
	if err := json.Unmarshal(uresp.Profile, &up); err != nil || up.Op != "update" || up.BatchSize != 1 {
		t.Fatalf("update profile document wrong: %v %s", err, uresp.Profile)
	}
	if up.AffectedSize >= up.Nodes {
		t.Fatalf("AffectedSize %d not below |V| %d", up.AffectedSize, up.Nodes)
	}

	// The coordinator-internal routing field stays rejected on the
	// profile path too.
	if _, err := c.Do(&server.Request{Cmd: "profile",
		Updates: []server.UpdateSpec{{Op: "addEdge", From: 0, To: 1, Label: "follow"}},
		Owned:   server.IDList{0}}); err == nil {
		t.Fatal("profile update with the owned routing field succeeded")
	}
}

// TestExplainMerged: explain fans out without executing and returns one
// plan document per fragment.
func TestExplainMerged(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 5))
	c := newEmbedded(t, g, 2, Config{D: 2})
	ex, err := c.Explain(mustParse(t, testPatterns[0]))
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
