// Package ha is the high-availability layer over the internal/cluster
// coordinator/worker seam: worker pools with load-balanced replica
// placement, a supervising health monitor with a consecutive-failure
// failover policy, and journal-backed restart recovery built on
// internal/store's snapshot+journal.
//
// Responsibilities are split so each stays testable: the cluster package
// owns the failover mechanics (warm replicas, promotion, re-shipping,
// probes), while this package owns the policy — where fragment copies
// are placed, when a worker is declared dead, and how a coordinator's
// durable state is recorded and replayed.
package ha

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/server"
)

// Pool is a cluster.WorkerPool backed by a fixed set of endpoints:
// qgpd addresses (NewDialPool) or embedded in-process worker slots
// (NewSpawnPool). Get opens a fresh worker session on the least-loaded
// endpoint the caller allows, where load is the sum of the placement
// weights (fragment owned-node counts) of the sessions currently open
// there; closing a pooled session returns its weight. All methods are
// safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	load []int
	open []int // open sessions per endpoint
	// reads counts the in-flight read-routed requests per endpoint: the
	// coordinator's replica-read router brackets every routed Match with
	// ReadStart/ReadEnd (via the pooled transport), so placement and
	// routing decisions see live read traffic, not just shipped-fragment
	// weight — a burst of Matches on one replica makes its endpoint look
	// busy before any fragment moves.
	reads []int
	dial  func(endpoint int) (cluster.Transport, error)
	name  func(endpoint int) string
}

// NewDialPool returns a pool whose endpoints are qgpd worker addresses;
// every Get dials a fresh connection (a fresh worker session) to the
// chosen address.
func NewDialPool(addrs []string) *Pool {
	p := &Pool{
		load:  make([]int, len(addrs)),
		open:  make([]int, len(addrs)),
		reads: make([]int, len(addrs)),
		name:  func(i int) string { return addrs[i] },
	}
	p.dial = func(i int) (cluster.Transport, error) { return cluster.Dial(addrs[i]) }
	return p
}

// NewSpawnPool returns a pool of n embedded worker slots; every Get
// spawns a fresh in-process worker attributed to the chosen slot. The
// slots model distinct hosts for placement purposes, so tests and
// single-machine deployments exercise the same placement logic as a
// distributed pool.
func NewSpawnPool(n int, cfg server.Config) *Pool {
	p := &Pool{
		load:  make([]int, n),
		open:  make([]int, n),
		reads: make([]int, n),
		name:  func(i int) string { return fmt.Sprintf("spawn-%d", i) },
	}
	p.dial = func(int) (cluster.Transport, error) { return cluster.InProcess(cfg), nil }
	return p
}

// Get opens a fresh worker session on the least-loaded endpoint not in
// avoid, falling back to the least-loaded endpoint overall when avoid
// covers the whole pool (an embedded pool co-locates by nature; a
// co-located replica still survives session-level failures). Ties break
// toward fewer open sessions, then the lower endpoint id.
func (p *Pool) Get(weight int, avoid map[int]bool) (cluster.Transport, int, error) {
	p.mu.Lock()
	ep := p.pickLocked(avoid)
	if ep < 0 {
		ep = p.pickLocked(nil)
	}
	if ep < 0 {
		p.mu.Unlock()
		return nil, -1, fmt.Errorf("ha: pool has no endpoints")
	}
	p.load[ep] += weight
	p.open[ep]++
	p.mu.Unlock()

	t, err := p.dial(ep)
	if err != nil {
		p.release(ep, weight)
		return nil, -1, fmt.Errorf("ha: endpoint %s: %w", p.name(ep), err)
	}
	return &pooled{Transport: t, pool: p, ep: ep, weight: weight}, ep, nil
}

// Primaries opens n worker sessions for a coordinator's primary
// fragments, spread across distinct endpoints while the pool has spare
// ones (wrapping onto the least-loaded endpoints past that). Fragment
// owned counts are not known until the coordinator partitions the
// graph, so primaries carry unit weight — their balance comes from the
// distinct-endpoint spread, while replica placement (cluster side)
// carries the real owned-count weights.
func (p *Pool) Primaries(n int) ([]cluster.Transport, error) {
	ts := make([]cluster.Transport, 0, n)
	used := make(map[int]bool)
	for i := 0; i < n; i++ {
		t, ep, err := p.Get(1, used)
		if err != nil {
			cluster.CloseAll(ts)
			return nil, err
		}
		used[ep] = true
		ts = append(ts, t)
	}
	return ts, nil
}

// pickLocked returns the least-loaded endpoint not in avoid, -1 when
// none qualifies. Placement load (shipped-fragment weight) dominates;
// in-flight routed reads break ties so a fresh session lands off the
// endpoint a Match burst is hammering, then fewer open sessions, then
// the lower endpoint id.
func (p *Pool) pickLocked(avoid map[int]bool) int {
	best := -1
	for i := range p.load {
		if avoid[i] {
			continue
		}
		if best < 0 || p.load[i] < p.load[best] ||
			(p.load[i] == p.load[best] && p.reads[i] < p.reads[best]) ||
			(p.load[i] == p.load[best] && p.reads[i] == p.reads[best] && p.open[i] < p.open[best]) {
			best = i
		}
	}
	return best
}

func (p *Pool) release(ep, weight int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.load[ep] -= weight
	p.open[ep]--
}

// pooled wraps a session handed out by Get: it reports its endpoint to
// the cluster layer (for co-location avoidance) and returns its
// placement weight to the pool when closed.
type pooled struct {
	cluster.Transport
	pool   *Pool
	ep     int
	weight int
	once   sync.Once
}

// Endpoint implements cluster.Endpointer.
func (t *pooled) Endpoint() int { return t.ep }

// ReadStart and ReadEnd implement cluster.ReadTracker: the coordinator's
// replica-read router brackets each routed read, so the endpoint-wide
// in-flight count breaks placement ties (pickLocked).
func (t *pooled) ReadStart() {
	t.pool.mu.Lock()
	t.pool.reads[t.ep]++
	t.pool.mu.Unlock()
}

func (t *pooled) ReadEnd() {
	t.pool.mu.Lock()
	t.pool.reads[t.ep]--
	t.pool.mu.Unlock()
}

func (t *pooled) Close() error {
	t.once.Do(func() { t.pool.release(t.ep, t.weight) })
	return t.Transport.Close()
}
