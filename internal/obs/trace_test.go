package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// logCapture collects Logf output thread-safely.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...interface{}) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) all() []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]string(nil), lc.lines...)
}

func TestTraceOutput(t *testing.T) {
	var lc logCapture
	tracer := NewTracer(lc.logf, nil)

	tr1 := tracer.Start("match")
	tr2 := tracer.Start("update")
	if tr1.ID() == tr2.ID() || tr1.ID() == 0 {
		t.Fatalf("trace ids must be unique and non-zero: %d, %d", tr1.ID(), tr2.ID())
	}

	t0 := time.Now()
	// Spans may be recorded from concurrent fan-out goroutines.
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr1.Span(w, "rtt", t0)
		}(w)
	}
	wg.Wait()
	tr1.Span(-1, "merge", t0)
	tr1.Count("answers", 42)
	tr1.Finish(nil)
	tr2.Finish(errors.New("boom"))

	lines := lc.all()
	if len(lines) != 2 {
		t.Fatalf("got %d trace lines, want 2: %q", len(lines), lines)
	}
	got := lines[0]
	for _, want := range []string{"op=match", "w0:rtt@", "w2:rtt@", "merge@", "counts=[answers=42]"} {
		if !strings.Contains(got, want) {
			t.Errorf("trace line missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "err=") {
		t.Errorf("successful trace should not report err:\n%s", got)
	}
	if !strings.Contains(lines[1], "op=update") || !strings.Contains(lines[1], "err=boom") {
		t.Errorf("failed trace line wrong:\n%s", lines[1])
	}
}

// TestTraceNests: a worker's record, returned as JSON under the trace id
// the coordinator sent, hangs under the coordinator span that waited for
// it, counts and attachment included; Join traces without a tracer, and
// the record Finish returns is the one the buffer retains.
func TestTraceNests(t *testing.T) {
	buf := NewTraceBuffer(4, 0)
	coord := NewTracer(nil, buf).Start("match")

	worker := (*Tracer)(nil).Join("match", coord.ID())
	worker.Span(-1, "match.qmatch", time.Now())
	worker.Count("answers", 3)
	worker.Attach(map[string]int{"candidates": 7})
	wrec := worker.Finish(nil)
	if wrec.ID != coord.ID() || wrec.Counts["answers"] != 3 || string(wrec.Attachment) != `{"candidates":7}` {
		t.Fatalf("worker record %+v", wrec)
	}
	raw, err := json.Marshal(wrec)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	coord.Nest(1, "rtt", t0, time.Millisecond, raw)
	coord.Span(-1, "merge", t0)
	rec := coord.Finish(nil)

	if got := buf.Snapshot(false, 0); len(got) != 1 || !reflect.DeepEqual(got[0], *rec) {
		t.Fatalf("buffer holds %+v, Finish returned %+v", got, rec)
	}
	doc, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Spans []struct{ Child *TraceRecord }
	}
	if err := json.Unmarshal(doc, &back); err != nil || len(back.Spans) != 2 || back.Spans[1].Child != nil {
		t.Fatalf("document %s (%v): want two spans, the second without a child", doc, err)
	}
	if child := back.Spans[0].Child; child == nil || !reflect.DeepEqual(*child, *wrec) {
		t.Fatalf("nested record %+v, want the worker's %+v", child, wrec)
	}
	if (*Tracer)(nil).Join("profile", 0).ID() == 0 {
		t.Fatal("a forced trace without a tracer has no id")
	}
}
