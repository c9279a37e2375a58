package ha

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// TestMonitorStatsUptime: Uptime is zero before Start, grows
// monotonically while the loop runs, and freezes at Stop; Stats stays
// safe to call concurrently with a running loop.
func TestMonitorStatsUptime(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(120, 3))
	pool := NewSpawnPool(2, server.Config{})
	ts, err := pool.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(g, ts, cluster.Config{D: 2, Pool: pool, Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	m := NewMonitor(c, MonitorConfig{Interval: 5 * time.Millisecond})
	if up := m.Stats().Uptime; up != 0 {
		t.Fatalf("uptime before Start = %v, want 0", up)
	}
	m.Start()
	// Hammer Stats concurrently with the running loop; the race detector
	// turns any unsynchronized read into a failure.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				m.Stats()
			}
		}()
	}
	wg.Wait()
	time.Sleep(15 * time.Millisecond)
	if up := m.Stats().Uptime; up <= 0 {
		t.Fatalf("uptime while running = %v, want > 0", up)
	}
	m.Stop()
	frozen := m.Stats().Uptime
	if frozen <= 0 {
		t.Fatalf("uptime after Stop = %v, want > 0", frozen)
	}
	time.Sleep(5 * time.Millisecond)
	if again := m.Stats().Uptime; again != frozen {
		t.Fatalf("uptime advanced after Stop: %v then %v", frozen, again)
	}
}

// TestMonitorMetricsMirrorStats: the ha.monitor.* counters track the
// same events MonitorStats counts.
func TestMonitorMetricsMirrorStats(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(120, 5))
	pool := NewSpawnPool(2, server.Config{})
	ts, err := pool.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(g, ts, cluster.Config{D: 2, Pool: pool, Logf: func(string, ...interface{}) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	reg := obs.NewRegistry()
	m := NewMonitor(c, MonitorConfig{FailureThreshold: 1, Metrics: reg})
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	ts[0].Close() // kill a primary; threshold 1 fails it over on the next pass
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	s := reg.Snapshot()
	for name, want := range map[string]int{
		"ha.monitor.passes":         st.Passes,
		"ha.monitor.probe_failures": st.ProbeFailures,
		"ha.monitor.failovers":      st.Failovers,
	} {
		if got := s.Counters[name]; got != int64(want) {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
	if st.Failovers == 0 {
		t.Error("killing a primary at threshold 1 did not fail over")
	}
}

// TestJournalMetrics: appended batches drive the ha.journal.* counters
// and bytes gauge, a threshold crossing counts a compaction, and the
// compaction emits a Logf diagnostic.
func TestJournalMetrics(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	logf := func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	reg := obs.NewRegistry()
	j, err := OpenJournal(t.TempDir(), JournalOptions{CompactBytes: 512, Metrics: reg, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })

	const batches = 40
	vg := graph.NewVersioned(j.Graph())
	for i := 0; i < batches; i++ {
		applyAndAppend(t, j, vg, server.UpdateSpec{Op: "addNode", Label: "person"}, server.UpdateSpec{Op: "addNode", Label: "product"})
	}
	s := reg.Snapshot()
	if got := s.Counters["ha.journal.batches"]; got != batches {
		t.Errorf("ha.journal.batches = %d, want %d", got, batches)
	}
	if got := s.Counters["ha.journal.mutations"]; got != 2*batches {
		t.Errorf("ha.journal.mutations = %d, want %d", got, 2*batches)
	}
	if got := s.Counters["ha.journal.compactions"]; got == 0 {
		t.Error("40 batches against a 512-byte threshold never compacted")
	}
	if got := s.Gauges["ha.journal.bytes"]; got <= 0 {
		t.Errorf("ha.journal.bytes = %d, want > 0", got)
	}
	if got := s.Counters["ha.journal.fsyncs"]; got != 0 {
		t.Errorf("ha.journal.fsyncs = %d without Fsync, want 0", got)
	}

	mu.Lock()
	defer mu.Unlock()
	var sawCompaction bool
	for _, line := range logged {
		if strings.Contains(line, "compacted at") {
			sawCompaction = true
		}
	}
	if !sawCompaction {
		t.Errorf("no compaction diagnostic logged; got %d lines", len(logged))
	}
}
