package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer hands out per-request traces with process-unique ids. A nil
// Tracer (tracing disabled) yields nil traces whose methods are no-ops,
// so instrumented code never branches on whether tracing is on.
type Tracer struct {
	next atomic.Uint64
	logf func(format string, args ...interface{})
	buf  *TraceBuffer
}

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

// Start opens a trace for one request. op names the request kind
// ("match", "update", "watch"); the returned trace carries a
// process-unique id so a slow request in the log can be followed across
// its per-worker spans.
func (t *Tracer) Start(op string) *Trace {
	if t == nil {
		return nil
	}
	return &Trace{id: t.next.Add(1), op: op, start: time.Now(), logf: t.logf, buf: t.buf}
}

// Trace accumulates the spans of one request — which worker was doing
// what, when, for how long — and emits a single structured log line at
// Finish. Span and Annotatef are safe to call from concurrent fan-out
// goroutines. All methods are no-ops on a nil receiver.
type Trace struct {
	id    uint64
	op    string
	start time.Time
	logf  func(format string, args ...interface{})
	buf   *TraceBuffer

	mu    sync.Mutex
	spans []span
	notes []string
}

// span is one timed step; worker -1 marks coordinator-side work (merge,
// plan) as opposed to a specific worker's.
type span struct {
	worker int
	name   string
	offset time.Duration // since the trace started
	dur    time.Duration
}

// ID returns the trace's process-unique id (0 on nil).
func (tr *Trace) ID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.id
}

// Span records a step that started at t0 and ends now. worker is the
// fragment/worker id the step belongs to, or -1 for coordinator-side
// work.
func (tr *Trace) Span(worker int, name string, t0 time.Time) {
	if tr == nil {
		return
	}
	sp := span{worker: worker, name: name, offset: t0.Sub(tr.start), dur: time.Since(t0)}
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
}

// Annotatef attaches a free-form key=value note ("affected=3",
// "w1 compute=0.42ms") to the trace.
func (tr *Trace) Annotatef(format string, args ...interface{}) {
	if tr == nil {
		return
	}
	note := fmt.Sprintf(format, args...)
	tr.mu.Lock()
	tr.notes = append(tr.notes, note)
	tr.mu.Unlock()
}

// Finish emits the trace as one structured log line:
//
//	trace id=7 op=update dur=1.84ms spans=[w0:rtt@0.12+1.40 w1:rtt@0.13+0.61 merge@1.60+0.09] notes=[affected=3] err=<nil>
//
// Span offsets and durations are milliseconds relative to the trace
// start, so overlap (the pipelined fan-out) is visible: two spans with
// the same offset ran concurrently. When the tracer carries a
// TraceBuffer, the same data is retained there as a TraceRecord.
func (tr *Trace) Finish(err error) {
	if tr == nil {
		return
	}
	total := time.Since(tr.start)
	tr.mu.Lock()
	spans, notes := tr.spans, tr.notes
	tr.mu.Unlock()

	if tr.buf != nil {
		rec := TraceRecord{
			ID:    tr.id,
			Op:    tr.op,
			Start: tr.start.UTC(),
			DurMS: ms(total),
			Notes: append([]string(nil), notes...),
		}
		if err != nil {
			rec.Error = err.Error()
		}
		for _, sp := range spans {
			rec.Spans = append(rec.Spans, SpanRecord{
				Worker:   sp.worker,
				Name:     sp.name,
				OffsetMS: ms(sp.offset),
				DurMS:    ms(sp.dur),
			})
		}
		tr.buf.Record(rec)
	}
	if tr.logf == nil {
		return
	}

	var b strings.Builder
	fmt.Fprintf(&b, "trace id=%d op=%s dur=%.2fms spans=[", tr.id, tr.op, ms(total))
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		if sp.worker >= 0 {
			fmt.Fprintf(&b, "w%d:", sp.worker)
		}
		fmt.Fprintf(&b, "%s@%.2f+%.2f", sp.name, ms(sp.offset), ms(sp.dur))
	}
	b.WriteByte(']')
	if len(notes) > 0 {
		fmt.Fprintf(&b, " notes=[%s]", strings.Join(notes, " "))
	}
	if err != nil {
		fmt.Fprintf(&b, " err=%v", err)
	}
	tr.logf("%s", b.String())
}

func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// SpanRecord is the structured form of one trace span. Worker is the
// fragment/worker id, or -1 for coordinator-side work; offsets and
// durations are milliseconds relative to the trace start, mirroring the
// log-line rendering.
type SpanRecord struct {
	Worker   int     `json:"worker"`
	Name     string  `json:"name"`
	OffsetMS float64 `json:"offset_ms"`
	DurMS    float64 `json:"dur_ms"`
}

// TraceRecord is the structured form of one finished trace, as retained
// by a TraceBuffer and served at /debug/traces.
type TraceRecord struct {
	ID    uint64       `json:"id"`
	Op    string       `json:"op"`
	Start time.Time    `json:"start"`
	DurMS float64      `json:"dur_ms"`
	Spans []SpanRecord `json:"spans,omitempty"`
	Notes []string     `json:"notes,omitempty"`
	Error string       `json:"error,omitempty"`
	Slow  bool         `json:"slow,omitempty"`
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

// Total returns the number of records ever written (retained or
// evicted).
func (b *TraceBuffer) Total() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
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
