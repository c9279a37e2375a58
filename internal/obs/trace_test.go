package obs

import (
	"errors"
	"fmt"
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
	tr1.Annotatef("answers=%d", 42)
	tr1.Finish(nil)
	tr2.Finish(errors.New("boom"))

	lines := lc.all()
	if len(lines) != 2 {
		t.Fatalf("got %d trace lines, want 2: %q", len(lines), lines)
	}
	got := lines[0]
	for _, want := range []string{"op=match", "w0:rtt@", "w2:rtt@", "merge@", "notes=[answers=42]"} {
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
