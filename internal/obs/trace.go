package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer hands out per-request traces. A nil Tracer (tracing disabled)
// yields nil traces from Start, whose methods are no-ops, so instrumented
// code never branches on whether tracing is on.
type Tracer struct {
	logf func(format string, args ...interface{})
	buf  *TraceBuffer
}

// traceIDs numbers the process's traces. One counter for every tracer,
// the nil one included, keeps the ids of forced traces (Join) unique too.
var traceIDs atomic.Uint64

// NewTracer returns a tracer that emits finished traces through logf
// (when non-nil) — the same diagnostics hook the servers already expose —
// and retains them as structured records in buf (when non-nil): log lines
// are for following a request live, the buffer is for asking "what were
// the last N slow requests" after the fact. When both sinks are nil there
// is nowhere for a trace to go, so the tracer itself is nil (tracing
// disabled).
func NewTracer(logf func(format string, args ...interface{}), buf *TraceBuffer) *Tracer {
	if logf == nil && buf == nil {
		return nil
	}
	return &Tracer{logf: logf, buf: buf}
}

// Start opens a trace for one request, nil when t is. op names the
// request kind ("match", "update", "watch").
func (t *Tracer) Start(op string) *Trace {
	if t == nil {
		return nil
	}
	return t.open(op, 0, false)
}

// Join opens a deep trace, even when t is nil: a profile request, or a
// worker's share of one, needs its record whether or not this process
// keeps one. id is the trace id the worker's record shares with the
// coordinator's (Request.Trace); 0 draws a fresh one. Only a deep trace
// crosses the hop (HopID) and carries the engine's profile, so the
// traces an always-on tracer opens stay as cheap as their spans.
func (t *Tracer) Join(op string, id uint64) *Trace {
	return t.open(op, id, true)
}

func (t *Tracer) open(op string, id uint64, deep bool) *Trace {
	if id == 0 {
		id = traceIDs.Add(1)
	}
	tr := &Trace{id: id, op: op, start: time.Now(), deep: deep}
	if t != nil {
		tr.logf, tr.buf = t.logf, t.buf
	}
	return tr
}

// Trace accumulates the record of one request: its timed spans — which
// worker was doing what, when, for how long, and under a span that waited
// for a worker, that worker's own record — its counts and an attachment.
// Span, Nest, Count and Attach are safe to call from concurrent fan-out
// goroutines. All methods are no-ops on a nil receiver.
type Trace struct {
	id    uint64
	op    string
	start time.Time
	deep  bool
	logf  func(format string, args ...interface{})
	buf   *TraceBuffer

	mu     sync.Mutex
	spans  []SpanRecord
	counts map[string]int
	attach json.RawMessage
}

// Deep reports whether the trace was opened by Join.
func (tr *Trace) Deep() bool {
	return tr != nil && tr.deep
}

// HopID returns what a request sent on behalf of this one carries as its
// trace id (Request.Trace): the id of a deep trace, else 0.
func (tr *Trace) HopID() uint64 {
	if !tr.Deep() {
		return 0
	}
	return tr.id
}

// Now returns the time a span of tr starts at: the clock on a live trace,
// the zero time on a nil one, whose Span and Nest drop it unread. A step
// timed for its span alone takes its start from here, so an untraced
// request pays no clock read for it and the call site still does not
// branch; a time a metric or a deadline consumes as well comes from
// time.Now.
func (tr *Trace) Now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span records a step that started at t0 and ends now. worker is the
// fragment/worker id the step belongs to, or -1 for the process's own
// work.
func (tr *Trace) Span(worker int, name string, t0 time.Time) {
	if tr != nil {
		tr.Nest(worker, name, t0, time.Since(t0), nil)
	}
}

// Nest records a step that started at t0 and took d, and hangs child under
// it: the record of the traced request the step waited for, as its reply
// carried it (Response.Profile: valid JSON, or empty for none). The record
// is kept as JSON: every hop of a traced request brings one, and nothing
// but a log line needs it decoded.
func (tr *Trace) Nest(worker int, name string, t0 time.Time, d time.Duration, child json.RawMessage) {
	if tr == nil {
		return
	}
	sp := SpanRecord{Worker: worker, Name: name, OffsetMS: ms(t0.Sub(tr.start)), DurMS: ms(d), Child: child}
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
}

// Count sets one of the request's counts: "batch" mutations, "touched"
// nodes, "nodes" in the graph, candidates re-judged ("affected"),
// "answers".
func (tr *Trace) Count(name string, n int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.counts == nil {
		tr.counts = make(map[string]int)
	}
	tr.counts[name] = n
	tr.mu.Unlock()
}

// Attach sets the record's attachment to v as JSON: a traced match's
// engine profile. A value that does not marshal is left off.
func (tr *Trace) Attach(v any) {
	if tr == nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	tr.mu.Lock()
	tr.attach = b
	tr.mu.Unlock()
}

// Finish closes the trace and returns its record (nil on a nil trace).
// When the tracer carries a TraceBuffer the record is retained there, and
// with a log hook it is emitted as one structured line:
//
//	trace id=7 op=update dur=1.84ms spans=[graph.apply@0.01+0.05 w0:rtt@0.12+1.40{graph.apply@0.02+0.01 dynamic.affected@0.04+0.02 dynamic.verify@0.06+0.28} merge@1.60+0.09] counts=[affected=3 batch=1] err=<nil>
//
// Span offsets and durations are milliseconds relative to the start of
// the trace holding them (a nested worker record keeps its own clock), so
// overlap (the pipelined fan-out) is visible: two spans with the same
// offset ran concurrently.
func (tr *Trace) Finish(err error) *TraceRecord {
	if tr == nil {
		return nil
	}
	dur := time.Since(tr.start)
	tr.mu.Lock()
	rec := &TraceRecord{ID: tr.id, Op: tr.op, Start: tr.start.UTC(), DurMS: ms(dur),
		Spans: tr.spans, Counts: tr.counts, Attachment: tr.attach}
	tr.mu.Unlock()
	if err != nil {
		rec.Error = err.Error()
	}
	tr.buf.Record(*rec)
	if tr.logf == nil {
		return rec
	}

	var b strings.Builder
	fmt.Fprintf(&b, "trace id=%d op=%s dur=%.2fms spans=[", rec.ID, rec.Op, rec.DurMS)
	writeSpans(&b, rec.Spans)
	b.WriteByte(']')
	if len(rec.Counts) > 0 {
		names := make([]string, 0, len(rec.Counts))
		for name := range rec.Counts {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString(" counts=[")
		for i, name := range names {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", name, rec.Counts[name])
		}
		b.WriteByte(']')
	}
	if err != nil {
		fmt.Fprintf(&b, " err=%v", err)
	}
	tr.logf("%s", b.String())
	return rec
}

// writeSpans renders spans for the log line, a nested record's in braces
// after the span that waited for it.
func writeSpans(b *strings.Builder, spans []SpanRecord) {
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		if sp.Worker >= 0 {
			fmt.Fprintf(b, "w%d:", sp.Worker)
		}
		fmt.Fprintf(b, "%s@%.2f+%.2f", sp.Name, sp.OffsetMS, sp.DurMS)
		var child TraceRecord
		if len(sp.Child) > 0 && json.Unmarshal(sp.Child, &child) == nil {
			b.WriteByte('{')
			writeSpans(b, child.Spans)
			b.WriteByte('}')
		}
	}
}

func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// SpanRecord is the structured form of one trace span. Worker is the
// fragment/worker id, or -1 for the process's own work; offsets and
// durations are milliseconds relative to the trace start, mirroring the
// log-line rendering. Child is the JSON TraceRecord of the traced request
// the span waited for, under the same trace id.
type SpanRecord struct {
	Worker   int             `json:"worker"`
	Name     string          `json:"name"`
	OffsetMS float64         `json:"offset_ms"`
	DurMS    float64         `json:"dur_ms"`
	Child    json.RawMessage `json:"child,omitempty"`
}

// TraceRecord is the structured form of one finished trace, as retained
// by a TraceBuffer, served at /debug/traces and returned as the profile
// command's document.
type TraceRecord struct {
	ID         uint64          `json:"id"`
	Op         string          `json:"op"`
	Start      time.Time       `json:"start"`
	DurMS      float64         `json:"dur_ms"`
	Spans      []SpanRecord    `json:"spans,omitempty"`
	Counts     map[string]int  `json:"counts,omitempty"`
	Attachment json.RawMessage `json:"attachment,omitempty"`
	Error      string          `json:"error,omitempty"`
	Slow       bool            `json:"slow,omitempty"`
}

// TraceBuffer retains the last N finished traces as structured records —
// the "flight recorder" half of tracing, complementing the fire-and-
// forget log lines. Records at or above the slow threshold are flagged,
// so "show me the recent slow requests" is one filtered snapshot rather
// than a log grep. All methods are safe for concurrent use and no-ops on
// a nil receiver, matching the rest of the package's disabled-is-nil
// contract.
type TraceBuffer struct {
	mu     sync.Mutex
	recs   []TraceRecord // ring storage, grows to max then wraps
	max    int
	total  int // records ever written; recs[i] holds write (total-k) at i=(total-k)%max
	slowMS float64
}

// NewTraceBuffer returns a buffer retaining the last max finished traces
// (128 when max <= 0). Traces lasting slowMS milliseconds or more are
// flagged Slow; slowMS <= 0 disables the flag.
func NewTraceBuffer(max int, slowMS float64) *TraceBuffer {
	if max <= 0 {
		max = 128
	}
	return &TraceBuffer{recs: make([]TraceRecord, 0, max), max: max, slowMS: slowMS}
}

// Record adds one finished trace, evicting the oldest when full.
func (b *TraceBuffer) Record(rec TraceRecord) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	rec.Slow = b.slowMS > 0 && rec.DurMS >= b.slowMS
	if len(b.recs) < b.max {
		b.recs = append(b.recs, rec) // lands at index total%max while filling
	} else {
		b.recs[b.total%b.max] = rec
	}
	b.total++
}

// Len returns the number of retained records.
func (b *TraceBuffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recs)
}

// Snapshot returns retained records newest-first. slowOnly keeps only
// records at or above the slow threshold; limit > 0 caps the result
// after filtering. The returned slice is a copy, safe to hold across
// further recording.
func (b *TraceBuffer) Snapshot(slowOnly bool, limit int) []TraceRecord {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.recs)
	out := make([]TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := b.recs[(b.total-1-i)%b.max]
		if slowOnly && !rec.Slow {
			continue
		}
		out = append(out, rec)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}
