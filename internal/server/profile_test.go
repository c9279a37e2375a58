package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/server"
)

func TestExplainCommand(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, err := c.Explain(followPattern); err == nil {
		t.Fatal("explain before load succeeded")
	}
	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Explain(followPattern)
	if err != nil {
		t.Fatal(err)
	}
	var doc server.ExplainDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("explain document does not parse: %v\n%s", err, raw)
	}
	if doc.Op != "explain" || doc.Plan == nil || len(doc.Plan.Patterns) == 0 {
		t.Fatalf("explain document incomplete: %s", raw)
	}
	pp := doc.Plan.Patterns[0]
	if pp.Pattern != "pi" {
		t.Errorf("first pattern = %q, want pi", pp.Pattern)
	}
	// 4 Persons and 1 Product: z is ranked at 4/4 from xo, y at 1/4 from z.
	if !reflect.DeepEqual(pp.Order, []string{"xo", "z", "y"}) ||
		!reflect.DeepEqual(pp.Class, []int{4, 4, 1}) || !reflect.DeepEqual(pp.Estimate, []float64{1, 1, 0.25}) {
		t.Errorf("plan = %+v, want order [xo z y], class sizes [4 4 1], estimates [1 1 0.25]", pp)
	}
}

// profileOf decodes a profile reply's document, the request's trace
// record, and the engine profile a match attaches to it (nil for none).
func profileOf(t *testing.T, resp *server.Response) (obs.TraceRecord, *match.Profile) {
	t.Helper()
	var rec obs.TraceRecord
	if err := json.Unmarshal(resp.Profile, &rec); err != nil {
		t.Fatalf("profile document does not parse: %v\n%s", err, resp.Profile)
	}
	var mp *match.Profile
	if len(rec.Attachment) > 0 {
		if err := json.Unmarshal(rec.Attachment, &mp); err != nil {
			t.Fatalf("engine profile does not parse: %v\n%s", err, rec.Attachment)
		}
	}
	return rec, mp
}

// spanCount counts rec's spans named name.
func spanCount(rec obs.TraceRecord, name string) int {
	n := 0
	for _, sp := range rec.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

func TestProfileMatchCommand(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	plain, err := c.Match(followPattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.ProfileMatch(followPattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The profiled response carries the same answers as a plain match.
	if fmt.Sprint(resp.Matches) != fmt.Sprint(plain.Matches) {
		t.Fatalf("profiled matches %v != plain matches %v", resp.Matches, plain.Matches)
	}
	rec, mp := profileOf(t, resp)
	if rec.Op != "profile" || rec.ID == 0 || spanCount(rec, "match.qmatch") != 1 {
		t.Fatalf("record header wrong: %s", resp.Profile)
	}
	if rec.Counts["answers"] != resp.Total {
		t.Errorf("record counts %d answers, response total = %d", rec.Counts["answers"], resp.Total)
	}
	if mp == nil || len(mp.Patterns) == 0 {
		t.Fatalf("record missing the engine profile: %s", resp.Profile)
	}
	pi := mp.Patterns[0]
	if pi.Pattern != "pi" {
		t.Errorf("first stage = %q, want pi", pi.Pattern)
	}
	if len(pi.Nodes) == 0 {
		t.Fatalf("pi stage has no per-node candidate counts: %s", resp.Profile)
	}
	for _, n := range pi.Nodes {
		if n.Candidates <= 0 {
			t.Errorf("node %s candidates = %d, want > 0 on the tiny graph", n.Name, n.Candidates)
		}
		if n.Accepted > n.Candidates {
			t.Errorf("node %s accepted %d > candidates %d", n.Name, n.Accepted, n.Candidates)
		}
	}
	if len(pi.Order) == 0 || pi.Order[0] != "xo" {
		t.Errorf("pi order = %v, want focus first", pi.Order)
	}
	if pi.Answers != resp.Total {
		t.Errorf("pi answers = %d, want %d (no negated edges)", pi.Answers, resp.Total)
	}
	// Stage metrics sum to the response's aggregate metrics.
	if mp.Metrics != *resp.Metrics {
		t.Errorf("profile metrics %+v != response metrics %+v", mp.Metrics, *resp.Metrics)
	}
}

func TestProfileUpdateCommand(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Watch("w", followPattern); err != nil {
		t.Fatal(err)
	}
	// p3 follows p2 as well and p3 starts buying: p3 becomes an answer.
	resp, err := c.ProfileUpdate(
		server.UpdateSpec{Op: "addEdge", From: 3, To: 2, Label: "follow"},
		server.UpdateSpec{Op: "addEdge", From: 2, To: 4, Label: "buy"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Deltas) != 1 {
		t.Fatalf("deltas = %+v, want the watch's delta", resp.Deltas)
	}
	rec, mp := profileOf(t, resp)
	if rec.Counts["batch"] != 2 || rec.Counts["nodes"] != 5 || mp != nil {
		t.Fatalf("record header wrong: %s", resp.Profile)
	}
	if spanCount(rec, "graph.apply") != 1 || spanCount(rec, "dynamic.affected") != 1 ||
		spanCount(rec, "dynamic.verify") != 1 || rec.DurMS <= 0 {
		t.Errorf("stage spans missing: %s", resp.Profile)
	}
	if d := resp.Deltas[0]; d.Watch != "w" || d.Affected <= 0 || rec.Counts["affected"] != d.Affected {
		t.Errorf("record counts %d affected, want the widest watch region %+v", rec.Counts["affected"], d)
	}
	if rec.Counts["affected"] > rec.Counts["nodes"] {
		t.Errorf("affected %d of %d nodes", rec.Counts["affected"], rec.Counts["nodes"])
	}
}

// TestProfileUpdateGroups: names holding one pattern share an evaluation.
// The record holds one dynamic.affected and one dynamic.verify span per
// distinct pattern, and the shared names' deltas repeat their group's.
func TestProfileUpdateGroups(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ name, pattern string }{
		{"a", followPattern},
		{"b", followPattern},
		{"c", "qgp\nn xo Person *\nn z Person\ne xo z follow =0\n"},
	} {
		if _, err := c.Watch(w.name, w.pattern); err != nil {
			t.Fatalf("watch %s: %v", w.name, err)
		}
	}
	resp, err := c.ProfileUpdate(
		server.UpdateSpec{Op: "addEdge", From: 3, To: 2, Label: "follow"},
		server.UpdateSpec{Op: "addEdge", From: 2, To: 4, Label: "buy"},
	)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := profileOf(t, resp)
	if n := spanCount(rec, "dynamic.verify"); n != 2 || spanCount(rec, "dynamic.affected") != 2 || len(resp.Deltas) != 3 {
		t.Fatalf("evaluations=%d deltas=%d, want 2 patterns under 3 names: %s", n, len(resp.Deltas), resp.Profile)
	}
	a, b := resp.Deltas[0], resp.Deltas[1]
	if a.Watch != "a" || b.Watch != "b" || a.Affected <= 0 || a.Affected != b.Affected {
		t.Errorf("deltas of one pattern differ: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.Added, b.Added) || len(a.Added) != 1 {
		t.Errorf("names of one pattern got deltas %+v and %+v, want p3 added under both", a, b)
	}
}

func TestProfileWithoutPayload(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(&server.Request{Cmd: "profile"}); err == nil {
		t.Fatal("profile with neither pattern nor updates succeeded")
	}
}

// TestMetricsWireMatchesHTTP is the regression test for the two scrape
// paths: the metrics wire command and the debug listener's /metrics must
// return identical snapshots. The HTTP document is fetched first — the
// wire command records its own latency only after building its snapshot,
// and the HTTP handler does not instrument itself, so at this point the
// two views are the same document byte for byte.
func TestMetricsWireMatchesHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	c, _ := startServer(t, server.Config{Metrics: reg})
	d, err := obs.Serve("127.0.0.1:0", obs.HandlerConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Match(followPattern, nil); err != nil {
		t.Fatal(err)
	}

	httpResp, err := http.Get(fmt.Sprintf("http://%s/metrics", d.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	httpDoc, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := c.Do(&server.Request{Cmd: "metrics"})
	if err != nil {
		t.Fatal(err)
	}
	wireDoc := resp.Obs
	if !bytes.Equal(bytes.TrimSpace(httpDoc), bytes.TrimSpace(wireDoc)) {
		t.Fatalf("wire and HTTP snapshots differ:\nHTTP: %s\nwire: %s", httpDoc, wireDoc)
	}
}
