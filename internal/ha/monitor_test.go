package ha

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/server"
)

// TestMonitorFailoverPolicy: the monitor tolerates one missed probe,
// fails the primary over on the second consecutive miss, and repairs
// the replication factor afterwards — all without any client operation
// tripping over the dead worker.
func TestMonitorFailoverPolicy(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(180, 3))
	pool := NewSpawnPool(3, server.Config{})
	ts, err := pool.Primaries(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(g, ts, cluster.Config{D: 2, Replicas: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ref := c.Graph()
	q := mustParse(t, chaosPatterns[0])
	if _, err := c.Watch("w", q); err != nil {
		t.Fatal(err)
	}

	m := NewMonitor(c, MonitorConfig{})
	// Healthy pass: nothing to do.
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Passes != 1 || st.Failovers != 0 || st.ProbeFailures != 0 {
		t.Fatalf("healthy pass stats: %+v", st)
	}

	// Kill primary 0 abruptly. First pass: a blip, no failover yet.
	ts[0].Close()
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Failovers != 0 || st.ProbeFailures != 1 {
		t.Fatalf("one missed probe must not fail over: %+v", st)
	}
	// Second consecutive miss: failover plus replica repair.
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	// Only fragment 0's primary was dead, so the one failover was its.
	st := m.Stats()
	if st.Failovers != 1 || st.ProbeFailures != 2 {
		t.Fatalf("stats after threshold: %+v, want 1 failover after 2 missed probes", st)
	}
	if st.ReplicasAdded == 0 {
		t.Fatalf("repair added no replicas: %+v", st)
	}
	if got := replicaCounts(t, c); !reflect.DeepEqual(got, []int{1, 1, 1}) {
		t.Fatalf("replica counts after repair = %v, want [1 1 1]", got)
	}
	probes, err := c.Probe()
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range probes {
		if pr.Primary != nil {
			t.Fatalf("fragment %d unhealthy after monitor failover: %v", pr.Fragment, pr.Primary)
		}
	}
	// The promoted worker serves exact answers.
	res, err := c.Match(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleAnswers(t, ref, q); !reflect.DeepEqual(emptyNotNil(res.Matches), emptyNotNil(want)) {
		t.Fatalf("answers after monitor failover %v != oracle %v", res.Matches, want)
	}
}

// TestMonitorLoop: Start/Stop lifecycle — a dead primary is failed over
// by the background loop without any manual Check calls.
func TestMonitorLoop(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(120, 8))
	pool := NewSpawnPool(2, server.Config{})
	ts, err := pool.Primaries(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(g, ts, cluster.Config{D: 2, Replicas: 2, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	m := NewMonitor(c, MonitorConfig{Interval: 5 * time.Millisecond})
	m.Start()
	m.Start() // idempotent
	defer m.Stop()

	ts[1].Close()
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Failovers == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("monitor loop never failed the dead worker over: %+v", m.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
	probes, err := c.Probe()
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range probes {
		if pr.Primary != nil {
			t.Fatalf("fragment %d unhealthy after loop failover: %v", pr.Fragment, pr.Primary)
		}
	}
}

// replicaCounts reads each fragment's warm-replica count off Health.
func replicaCounts(t *testing.T, c *cluster.Coordinator) []int {
	t.Helper()
	fhs, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(fhs))
	for i, fh := range fhs {
		counts[i] = fh.Replicas
	}
	return counts
}
