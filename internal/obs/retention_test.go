package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceBufferBounded(t *testing.T) {
	b := NewTraceBuffer(4, 0)
	for i := 1; i <= 10; i++ {
		b.Record(TraceRecord{ID: uint64(i), Op: "match", DurMS: float64(i)})
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (bounded)", b.Len())
	}
	if b.total != 10 {
		t.Fatalf("total = %d, want 10", b.total)
	}
	recs := b.Snapshot(false, 0)
	if len(recs) != 4 {
		t.Fatalf("snapshot has %d records, want 4", len(recs))
	}
	// Newest first: ids 10, 9, 8, 7.
	for i, want := range []uint64{10, 9, 8, 7} {
		if recs[i].ID != want {
			t.Fatalf("snapshot[%d].ID = %d, want %d (newest first)", i, recs[i].ID, want)
		}
	}
	if recs = b.Snapshot(false, 2); len(recs) != 2 || recs[0].ID != 10 {
		t.Fatalf("limited snapshot wrong: %+v", recs)
	}
}

func TestTraceBufferSlowFilter(t *testing.T) {
	b := NewTraceBuffer(8, 10) // slow at >= 10ms
	b.Record(TraceRecord{ID: 1, DurMS: 2})
	b.Record(TraceRecord{ID: 2, DurMS: 10})
	b.Record(TraceRecord{ID: 3, DurMS: 50})
	b.Record(TraceRecord{ID: 4, DurMS: 9.99})
	slow := b.Snapshot(true, 0)
	if len(slow) != 2 || slow[0].ID != 3 || slow[1].ID != 2 {
		t.Fatalf("slow snapshot = %+v, want ids [3 2]", slow)
	}
	for _, r := range slow {
		if !r.Slow {
			t.Fatalf("record %d not flagged slow", r.ID)
		}
	}
	all := b.Snapshot(false, 0)
	if len(all) != 4 {
		t.Fatalf("full snapshot has %d records, want 4", len(all))
	}
}

// TestTraceBufferConcurrent drives concurrent Finish (through a tracer)
// and Snapshot; run under -race this is the data-race check for the
// flight recorder.
func TestTraceBufferConcurrent(t *testing.T) {
	b := NewTraceBuffer(16, 0)
	tracer := NewTracer(nil, b)
	if tracer == nil {
		t.Fatal("tracer with a buffer sink must not be nil")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tr := tracer.Start("op")
				tr.Span(0, "rtt", time.Now())
				tr.Finish(nil)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Snapshot(false, 0)
				b.Len()
			}
		}()
	}
	wg.Wait()
	if b.total != 400 {
		t.Fatalf("total = %d, want 400", b.total)
	}
	if b.Len() != 16 {
		t.Fatalf("Len = %d, want 16", b.Len())
	}
}

// TestTraceRecordJSONDeterministic: the same record marshals to the same
// bytes — the /debug/traces document is diffable across scrapes.
func TestTraceRecordJSONDeterministic(t *testing.T) {
	rec := TraceRecord{
		ID:    7,
		Op:    "update",
		Start: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		DurMS: 1.25,
		Spans: []SpanRecord{{Worker: 0, Name: "rtt", OffsetMS: 0.1, DurMS: 1.0, Child: json.RawMessage(`{"id":7,"op":"update","counts":{"affected":3,"edits":2}}`)},
			{Worker: -1, Name: "merge", OffsetMS: 1.1, DurMS: 0.1}},
		Counts: map[string]int{"batch": 1, "affected": 3, "edits": 2, "nodes": 9},
		Slow:   true,
	}
	a, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	bts, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, bts) {
		t.Fatalf("marshal not deterministic:\n%s\n%s", a, bts)
	}
	var back TraceRecord
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestNilTraceBuffer(t *testing.T) {
	var b *TraceBuffer
	b.Record(TraceRecord{ID: 1}) // must not panic
	if b.Len() != 0 || b.Snapshot(false, 0) != nil {
		t.Fatal("nil buffer must be inert")
	}
	if NewTracer(nil, nil) != nil {
		t.Fatal("tracer with no sinks must be nil (tracing disabled)")
	}
}

func TestWindowsPercentiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("req.ms", []float64{1, 10, 100})
	w := NewWindows(reg, time.Second)

	// Window 1: 90 fast, 10 slow.
	for i := 0; i < 90; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	w.Roll()
	s := w.Snapshot()
	wh, ok := s.Histograms["req.ms"]
	if !ok {
		t.Fatalf("window missing histogram: %+v", s)
	}
	if wh.Count != 100 {
		t.Fatalf("window count = %d, want 100", wh.Count)
	}
	if wh.P50 > 1 || wh.P50 <= 0 {
		t.Fatalf("p50 = %v, want within (0, 1]", wh.P50)
	}
	if wh.P95 <= 10 || wh.P95 > 100 {
		t.Fatalf("p95 = %v, want within (10, 100]", wh.P95)
	}

	// Window 2: nothing observed — the histogram must drop out rather
	// than report window-1 percentiles as current.
	w.Roll()
	if s := w.Snapshot(); len(s.Histograms) != 0 {
		t.Fatalf("quiet window must be empty, got %+v", s.Histograms)
	}

	// Window 3: only the delta since window 2 counts.
	h.Observe(500) // overflow bucket clamps to the last bound
	w.Roll()
	s = w.Snapshot()
	if wh := s.Histograms["req.ms"]; wh.Count != 1 || wh.P50 != 100 {
		t.Fatalf("delta window wrong: %+v", wh)
	}

	// Window 4: a removed series stays gone, though a holder still writes
	// to it.
	h.Observe(5)
	reg.Remove("req.ms")
	h.Observe(5)
	w.Roll()
	w.Roll()
	if _, ok := w.Snapshot().Histograms["req.ms"]; ok || len(reg.Snapshot().Histograms) != 0 {
		t.Fatalf("removed series came back: window %+v, registry %+v", w.Snapshot(), reg.Snapshot())
	}
}

func TestPercentileFromBuckets(t *testing.T) {
	bounds := []float64{1, 2, 4}
	counts := []int64{2, 2, 0, 0} // 4 obs, all <= 2
	if got := percentileFromBuckets(bounds, counts, 4, 0.5); got != 1 {
		t.Fatalf("p50 = %v, want 1 (upper edge of first bucket)", got)
	}
	if got := percentileFromBuckets(bounds, counts, 4, 0.75); got != 1.5 {
		t.Fatalf("p75 = %v, want 1.5 (midway through second bucket)", got)
	}
	if got := percentileFromBuckets(bounds, []int64{0, 0, 0, 4}, 4, 0.5); got != 4 {
		t.Fatalf("overflow p50 = %v, want clamp to 4", got)
	}
	if got := percentileFromBuckets(nil, nil, 0, 0.5); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
}

func TestWriteProm(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("match.count").Add(3)
	reg.Gauge("cluster.config.workers").Set(2)
	h := reg.Histogram("match.ms", []float64{0.001, 1, 100})
	h.Observe(0.0005)
	h.Observe(0.5)
	h.Observe(50)
	h.Observe(5000)

	var buf bytes.Buffer
	if err := WriteProm(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE qgp_match_count counter",
		"qgp_match_count 3",
		"# TYPE qgp_cluster_config_workers gauge",
		"qgp_cluster_config_workers 2",
		"# TYPE qgp_match_ms histogram",
		`qgp_match_ms_bucket{le="0.001"} 1`,
		`qgp_match_ms_bucket{le="1"} 2`,
		`qgp_match_ms_bucket{le="100"} 3`,
		`qgp_match_ms_bucket{le="+Inf"} 4`,
		"qgp_match_ms_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// _sum equals the observation sum.
	var sum float64
	if _, err := fmt.Sscanf(out[strings.Index(out, "qgp_match_ms_sum "):], "qgp_match_ms_sum %g", &sum); err != nil {
		t.Fatalf("no parsable _sum line: %v\n%s", err, out)
	}
	if math.Abs(sum-5050.5005) > 1e-6 {
		t.Fatalf("_sum = %v, want 5050.5005", sum)
	}
}

// TestDebugServerRetention covers the debug endpoint's new routes:
// /debug/traces (with slow and n filters), /metrics?format=prom and
// /metrics?window=1.
func TestDebugServerRetention(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.count").Add(1)
	reg.Histogram("test.ms", []float64{1, 10}).Observe(0.5)
	traces := NewTraceBuffer(8, 10)
	tracer := NewTracer(nil, traces)
	windows := NewWindows(reg, time.Second)
	windows.Roll()

	tr := tracer.Start("match")
	tr.Finish(nil)
	slow := TraceRecord{ID: 99, Op: "update", DurMS: 25}
	traces.Record(slow)

	d, err := Serve("127.0.0.1:0", HandlerConfig{Registry: reg, Traces: traces, Windows: windows})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := fmt.Sprintf("http://%s", d.Addr())

	code, body := get(t, base+"/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
	var recs []TraceRecord
	if err := json.Unmarshal(body, &recs); err != nil || len(recs) != 2 {
		t.Fatalf("/debug/traces = %v %s", err, body)
	}
	if recs[0].ID != 99 {
		t.Fatalf("traces not newest-first: %+v", recs)
	}

	code, body = get(t, base+"/debug/traces?slow=1")
	if err := json.Unmarshal(body, &recs); code != http.StatusOK || err != nil || len(recs) != 1 || recs[0].ID != 99 {
		t.Fatalf("/debug/traces?slow=1 = %d %v %s", code, err, body)
	}

	resp, err := http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	resp.Body.Close()
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prom Content-Type = %q", ct)
	}
	code, body = get(t, base+"/metrics?format=prom")
	if code != http.StatusOK || !strings.Contains(string(body), "qgp_test_count 1") {
		t.Fatalf("/metrics?format=prom = %d %s", code, body)
	}

	code, body = get(t, base+"/metrics?window=1")
	var ws WindowedSnapshot
	if err := json.Unmarshal(body, &ws); code != http.StatusOK || err != nil {
		t.Fatalf("/metrics?window=1 = %d %v %s", code, err, body)
	}
	if ws.Histograms["test.ms"].Count != 1 {
		t.Fatalf("window snapshot missing histogram: %s", body)
	}
}
