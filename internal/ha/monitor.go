package ha

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// MonitorConfig tunes a Monitor.
type MonitorConfig struct {
	// Interval between supervision passes (default 2s).
	Interval time.Duration
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...interface{})
	// Metrics, when set, mirrors MonitorStats into the registry
	// (ha.monitor.* counters) so the debug listener's /metrics shows
	// supervision activity without polling Stats.
	Metrics *obs.Registry
}

// failureThreshold is how many consecutive failed probes declare a
// primary dead and trigger failover: one lost probe is tolerated as a
// blip, the usual practice of not failing over on a single timeout.
const failureThreshold = 2

func (c *MonitorConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
}

// MonitorStats counts what a monitor has done.
type MonitorStats struct {
	Passes          int `json:"passes"`          // supervision passes completed
	ProbeFailures   int `json:"probeFailures"`   // primary probes that failed
	Failovers       int `json:"failovers"`       // primaries replaced
	ReplicasDropped int `json:"replicasDropped"` // dead warm replicas discarded by repair
	ReplicasAdded   int `json:"replicasAdded"`   // fresh warm replicas shipped by repair
	// Uptime is how long the supervision loop has been running, measured
	// on the monotonic clock from Start (zero before Start, frozen at
	// Stop). Wall-clock steps (NTP, suspend) cannot make it jump.
	Uptime time.Duration `json:"uptimeNS"`
}

// monitorMetrics mirrors MonitorStats into a registry. With no registry
// configured every field is nil, and nil obs instruments are no-ops, so
// the increments below need no guards.
type monitorMetrics struct {
	passes        *obs.Counter
	probeFailures *obs.Counter
	failovers     *obs.Counter
	dropped       *obs.Counter
	added         *obs.Counter
}

func newMonitorMetrics(reg *obs.Registry) monitorMetrics {
	return monitorMetrics{
		passes:        reg.Counter("ha.monitor.passes"),
		probeFailures: reg.Counter("ha.monitor.probe_failures"),
		failovers:     reg.Counter("ha.monitor.failovers"),
		dropped:       reg.Counter("ha.monitor.replicas_dropped"),
		added:         reg.Counter("ha.monitor.replicas_added"),
	}
}

// Monitor supervises a coordinator's workers: it probes every fragment
// copy over the wire protocol's ping path on a fixed cadence, fails a
// primary over once it misses failureThreshold consecutive probes, and
// repairs the replication factor after any replica loss. The probing
// and failover mechanics live in the cluster package (Probe, FailOver,
// Repair); the monitor is the policy loop driving them.
type Monitor struct {
	c   *cluster.Coordinator
	cfg MonitorConfig
	om  monitorMetrics

	mu          sync.Mutex
	consecutive map[int]int
	stats       MonitorStats
	started     time.Time // monotonic Start time; zero before Start
	stopped     time.Time // monotonic Stop time; zero while running
	stop        chan struct{}
	done        chan struct{}
}

// NewMonitor returns an unstarted monitor for c. Check runs one pass
// synchronously; Start runs passes on cfg.Interval until Stop.
func NewMonitor(c *cluster.Coordinator, cfg MonitorConfig) *Monitor {
	cfg.fill()
	return &Monitor{c: c, cfg: cfg, om: newMonitorMetrics(cfg.Metrics), consecutive: make(map[int]int)}
}

// Start launches the supervision loop. The loop exits on Stop or once
// the coordinator reports itself closed or failed.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	m.started, m.stopped = time.Now(), time.Time{}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go m.loop(m.stop, m.done)
}

// Stop halts the supervision loop and waits for an in-flight pass.
// Safe to call without Start and more than once.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	if stop != nil {
		m.stopped = time.Now()
	}
	m.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Stats returns what the monitor has done so far. Safe to call
// concurrently with a running supervision loop; the returned copy is
// consistent (taken under the monitor's lock) and Uptime is monotonic.
func (m *Monitor) Stats() MonitorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	switch {
	case m.started.IsZero():
		// Never started: Uptime stays zero.
	case m.stopped.IsZero():
		st.Uptime = time.Since(m.started)
	default:
		st.Uptime = m.stopped.Sub(m.started)
	}
	return st
}

func (m *Monitor) loop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if err := m.Check(); errors.Is(err, ErrUnsupervisable) {
				m.cfg.Logf("ha: monitor: coordinator gone, stopping: %v", err)
				return
			}
		}
	}
}

// ErrUnsupervisable is returned by Check when the coordinator refuses
// supervision (closed, or fail-stopped beyond what failover can fix);
// the loop stops on it.
var ErrUnsupervisable = errors.New("ha: coordinator is not supervisable")

// Check runs one supervision pass: probe every fragment copy, fail over
// primaries past the consecutive-failure threshold, and restore the
// replication factor if any replica was lost. It is the unit the Start
// loop runs; tests drive it directly for determinism.
func (m *Monitor) Check() error {
	results, err := m.c.Probe()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnsupervisable, err)
	}
	needRepair := false
	for _, pr := range results {
		if pr.Primary == nil {
			m.mu.Lock()
			m.consecutive[pr.Fragment] = 0
			m.mu.Unlock()
		} else {
			m.mu.Lock()
			m.consecutive[pr.Fragment]++
			m.stats.ProbeFailures++
			trip := m.consecutive[pr.Fragment] >= failureThreshold
			m.mu.Unlock()
			m.om.probeFailures.Inc()
			m.cfg.Logf("ha: monitor: fragment %d probe failed: %v", pr.Fragment, pr.Primary)
			if trip {
				ferr := m.c.FailOver(pr.Fragment)
				m.mu.Lock()
				if ferr == nil {
					// A failed FailOver (pool exhausted) keeps the
					// counter tripped, so the very next pass retries
					// instead of waiting out the threshold again.
					m.consecutive[pr.Fragment] = 0
					m.stats.Failovers++
					m.om.failovers.Inc()
				}
				m.mu.Unlock()
				if ferr != nil {
					m.cfg.Logf("ha: monitor: fragment %d failover: %v", pr.Fragment, ferr)
				}
				needRepair = true
			}
		}
		for _, rerr := range pr.Replicas {
			if rerr != nil {
				needRepair = true
			}
		}
	}
	if needRepair {
		rep, rerr := m.c.Repair()
		m.mu.Lock()
		m.stats.ReplicasDropped += rep.Dropped
		m.stats.ReplicasAdded += rep.Added
		m.mu.Unlock()
		m.om.dropped.Add(int64(rep.Dropped))
		m.om.added.Add(int64(rep.Added))
		if rerr != nil {
			m.cfg.Logf("ha: monitor: repair: %v", rerr)
		}
	}
	m.mu.Lock()
	m.stats.Passes++
	m.mu.Unlock()
	m.om.passes.Inc()
	return nil
}
