package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilSafety is the "zero cost when disabled" contract: every
// instrument, registry and trace method must be a no-op — not a panic —
// on a nil receiver, because disabled components hold exactly those
// nils.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(time.Now())
	if h.Count() != 0 || h.Sum() != 0 || h.BucketCounts() != nil {
		t.Fatal("nil histogram state")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must yield nil instruments")
	}
	r.Remove("x")
	if string(r.JSON()) != "{}" {
		t.Fatalf("nil registry JSON = %s", r.JSON())
	}
	var tr *Tracer
	if tr.Start("op") != nil {
		t.Fatal("nil tracer must yield a nil trace")
	}
	var trace *Trace
	trace.Span(0, "x", time.Now())
	trace.Nest(0, "x", time.Now(), 0, []byte(`{}`))
	trace.Count("n", 1)
	trace.Attach(1)
	if trace.Finish(nil) != nil || trace.ID() != 0 {
		t.Fatal("nil trace id")
	}
	if NewTracer(nil, nil) != nil {
		t.Fatal("NewTracer(nil, nil) must disable tracing")
	}
}

// TestHistogramBuckets pins the bucket boundary semantics: bucket i
// counts bounds[i-1] < v <= bounds[i] (upper bounds are inclusive, as
// the le convention), with a trailing overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 2.0001, 5, 7, 100} {
		h.Observe(v)
	}
	// ≤1: {0.5, 1}; ≤2: {1.5, 2}; ≤5: {2.0001, 5}; overflow: {7, 100}.
	want := []int64{2, 2, 2, 2}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if sum := h.Sum(); sum != 0.5+1+1.5+2+2.0001+5+7+100 {
		t.Fatalf("sum = %v", sum)
	}
}

// TestHistogramUnsortedBounds: NewHistogram sorts, so callers cannot
// corrupt the bucket search invariant.
func TestHistogramUnsortedBounds(t *testing.T) {
	h := NewHistogram([]float64{5, 1, 2})
	h.Observe(1.5)
	got := h.BucketCounts()
	if got[1] != 1 {
		t.Fatalf("1.5 landed in %v, want bucket 1 (≤2)", got)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// get-or-create races, concurrent observation, concurrent snapshots —
// and asserts nothing is lost. The CI -race job runs this.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines, iters = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				r.Counter("shared.count").Inc()
				r.Gauge("shared.gauge").Set(int64(j))
				r.Histogram("shared.hist", LatencyBucketsMS).Observe(float64(j % 10))
				if j%100 == 0 {
					_ = r.Snapshot()
					_ = r.JSON()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared.count").Value(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Histogram("shared.hist", nil).Count(); got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
	var total int64
	for _, n := range r.Histogram("shared.hist", nil).BucketCounts() {
		total += n
	}
	if total != goroutines*iters {
		t.Fatalf("bucket total = %d, want %d", total, goroutines*iters)
	}
}

// TestRegistryJSON asserts the export parses, carries every instrument
// kind, and is deterministic for a fixed state.
func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Gauge("b.gauge").Set(-7)
	r.Histogram("c.ms", []float64{1, 10}).Observe(4)

	b := r.JSON()
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("export does not parse: %v\n%s", err, b)
	}
	if snap.Counters["a.count"] != 3 || snap.Gauges["b.gauge"] != -7 {
		t.Fatalf("snapshot wrong: %+v", snap)
	}
	h := snap.Histograms["c.ms"]
	if h.Count != 1 || h.Sum != 4 || len(h.Counts) != 3 || h.Counts[1] != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", h)
	}
	if b2 := r.JSON(); string(b) != string(b2) {
		t.Fatalf("export is not deterministic:\n%s\n%s", b, b2)
	}
}

// TestInstrumentIdentity: the registry get-or-creates, so two lookups of
// one name share state — how independent components agree on a metric.
func TestInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	r.Counter("x").Inc()
	if got := r.Counter("x").Value(); got != 2 {
		t.Fatalf("counter identity broken: %d", got)
	}
	h1 := r.Histogram("h", []float64{1})
	h2 := r.Histogram("h", []float64{99, 100}) // later bounds ignored
	if h1 != h2 {
		t.Fatal("histogram identity broken")
	}
}
