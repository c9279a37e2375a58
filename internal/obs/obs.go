// Package obs is the cluster's observability layer: a dependency-free
// metrics registry (atomic counters, gauges and bounded-bucket
// histograms with expvar-style JSON export), lightweight per-request
// tracing (trace.go), and a debug HTTP endpoint serving /metrics,
// /healthz and /debug/pprof (http.go).
//
// The design constraint is the cluster's update hot path: recording a
// metric is one or two atomic operations, instruments are resolved from
// the registry once at construction time (never per request), and every
// method is a no-op on a nil receiver — a component built without a
// registry pays a single nil check, so the instrumented and
// uninstrumented code paths are the same code.
//
// This is the sensor layer the ROADMAP's elastic re-fragmentation item
// will read from: per-fragment load lives here as routed-update counters
// and per-worker latency histograms, and the
// "work proportional to the change" claim (Berkholz–Keppeler–Schweikardt
// framing, PAPERS.md) becomes checkable as the affected-set-size
// histogram of the update path.
package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe for concurrent use and no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value instrument. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the value by n (gauges go both ways).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a bounded-bucket distribution: bucket i counts
// observations v with bounds[i-1] < v <= bounds[i], and one overflow
// bucket counts v > bounds[len-1]. Memory is fixed at construction —
// observing never allocates. All methods are safe for concurrent use and
// no-ops on a nil receiver.
type Histogram struct {
	bounds []float64      // ascending upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given ascending upper
// bounds. A nil or empty bounds slice yields a single overflow bucket
// (count/sum only).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the elapsed time since t0 in milliseconds — the
// unit every latency histogram in the registry uses.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(float64(time.Since(t0).Microseconds()) / 1000)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// BucketCounts returns a copy of the per-bucket counts; the last entry
// is the overflow bucket (> the final bound).
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// HistogramSnapshot is the JSON form of a histogram: Counts is aligned
// with Bounds plus a trailing overflow bucket.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count:  h.Count(),
		Sum:    h.Sum(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: h.BucketCounts(),
	}
}

// LatencyBucketsMS is the default latency bucket set, in milliseconds:
// 1µs to 5s, roughly logarithmic. The microsecond tail exists for the
// incremental update path, whose per-batch cost sits in the tens of
// microseconds once work is proportional to the change — buckets
// bottoming out at 50µs collapsed that entire distribution into two
// bins; the top stays wide enough for a multi-second recovery.
var LatencyBucketsMS = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// SizeBuckets is the default bucket set for counts (batch sizes,
// affected-set sizes, fan-out widths): powers of four from 1 to ~1M.
var SizeBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// Registry is a named set of instruments. Lookup methods get-or-create,
// so independent components agree on an instrument by name alone; hot
// paths resolve their instruments once and hold the pointers. A nil
// *Registry is valid everywhere and yields nil instruments, whose
// methods are no-ops — "metrics disabled" needs no branching at use
// sites beyond what the nil receiver check already does.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use (nil on a
// nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (nil on a nil registry). The bounds of the first
// caller win; later callers share the instrument regardless of the
// bounds they pass.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Remove drops the named instruments of any kind, for series whose
// subject is gone for good (an ephemeral tenant session). A holder of a
// removed instrument may still write to it; nothing reads it any more.
// A later lookup of the name creates a fresh one.
func (r *Registry) Remove(names ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		delete(r.counters, name)
		delete(r.gauges, name)
		delete(r.hists, name)
	}
}

// Snapshot is a point-in-time copy of every instrument, in the shape the
// JSON export serializes. Maps marshal with sorted keys, so the export
// is deterministic for a fixed state.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state. Safe to call
// concurrently with observations; each instrument is read atomically
// (the snapshot as a whole is not one atomic cut, which diagnostics do
// not need).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// JSON renders the registry as a JSON document ("{}" on nil), the body
// /metrics and the metrics wire command serve.
func (r *Registry) JSON() []byte {
	if r == nil {
		return []byte("{}")
	}
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		// Snapshot is maps of numbers; Marshal cannot fail on it.
		return []byte("{}")
	}
	return b
}
