package tenant

// Admission control: the shared cluster's QoS layer. Every tenant gets
// two token buckets refilled on demand from the manager clock:
//
//   - a command bucket (Config.RateQPS/RateBurst) charged one token per
//     admitted match, update or watch — the blunt per-tenant QPS cap;
//   - an update budget (Config.AffectedPerSec/AffectedBurst) denominated
//     in affected-set units, the focus candidates the workers re-judged
//     — per contacted worker its widest watch group's, summed
//     (UpdateResult.AffectedSize). This is the incremental-maintenance
//     observable — work proportional to the change, not the database —
//     so it is what updates actually cost the shared cluster, and what
//     tenants are billed for.
//
// The affected budget is post-paid: an update's cost is unknown until
// the workers have re-judged its candidates, so Admit only
// requires a non-negative balance and ChargeAffected debits the real
// size afterwards. One oversized batch cannot be under-charged; it
// drives the balance negative and the tenant's next updates are refused
// until the refill works the debt off. Rejections carry *ErrThrottled
// with the wait until capacity returns, surfaced on the wire as
// Response.RetryAfterMS.

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// ErrThrottled reports a command refused by per-tenant admission
// control. RetryAfter is how long until the exhausted bucket has
// capacity again — a well-behaved client backs off that long instead of
// hammering.
type ErrThrottled struct {
	Tenant     string
	Reason     string // "rate" (command bucket) | "budget" (affected-set budget)
	RetryAfter time.Duration
}

func (e *ErrThrottled) Error() string {
	return fmt.Sprintf("tenant: session %q throttled (%s limit), retry in %v",
		e.Tenant, e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// RetryAfterMS is RetryAfter in the wire's fractional milliseconds
// (Response.RetryAfterMS).
func (e *ErrThrottled) RetryAfterMS() float64 {
	return float64(e.RetryAfter.Microseconds()) / 1000
}

// bucket is a token bucket refilled on demand: no background goroutine,
// just elapsed-time accounting against the manager clock (Config.Now in
// tests). The zero value starts full on first refill.
type bucket struct {
	tokens float64
	last   time.Time
}

// refill advances the bucket to now at rate tokens/second, capped at
// burst.
func (b *bucket) refill(now time.Time, rate, burst float64) {
	if b.last.IsZero() {
		b.tokens = burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * rate
	}
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
}

// take debits cost tokens if the balance covers them, or reports how
// long the caller must wait for the balance to recover.
func (b *bucket) take(cost, rate float64) (time.Duration, bool) {
	if b.tokens >= cost {
		b.tokens -= cost
		return 0, true
	}
	return durationFor(cost-b.tokens, rate), false
}

// spend debits cost unconditionally — the post-paid path; the balance
// may go negative.
func (b *bucket) spend(cost float64) { b.tokens -= cost }

// deficit reports how long until a negative balance refills to zero (0
// when the balance is already non-negative).
func (b *bucket) deficit(rate float64) time.Duration {
	if b.tokens >= 0 {
		return 0
	}
	return durationFor(-b.tokens, rate)
}

func durationFor(tokens, rate float64) time.Duration {
	d := time.Duration(tokens / rate * float64(time.Second))
	if d <= 0 {
		d = time.Millisecond // round a sub-resolution wait up, never report "retry in 0"
	}
	return d
}

// instruments is one tenant's metric set, resolved once at session
// creation. Fields are nil without a registry; the obs types no-op on
// nil receivers. A named session's series live for the process lifetime
// — they are keyed by session name, so dashboards keep a tenant's history
// across reconnects and idle evictions. An ephemeral session's generated
// name never comes back, so its series are removed when it is evicted.
type instruments struct {
	matchMS   *obs.Histogram // tenant.<name>.match.ms — served reads (match/explain/profile/watch)
	updateMS  *obs.Histogram // tenant.<name>.update.ms — served writes
	ops       *obs.Counter   // tenant.<name>.ops — admitted commands (the QPS series)
	throttled *obs.Counter   // tenant.<name>.throttled — admission rejections
	overflow  *obs.Counter   // tenant.<name>.inbox_overflow — pending inboxes dropped at cap
}

func (m *Manager) instruments(name string) *instruments {
	r := m.cfg.Metrics
	if r == nil {
		return &instruments{}
	}
	s := seriesOf(name)
	return &instruments{
		matchMS:   r.Histogram(s[0], obs.LatencyBucketsMS),
		updateMS:  r.Histogram(s[1], obs.LatencyBucketsMS),
		ops:       r.Counter(s[2]),
		throttled: r.Counter(s[3]),
		overflow:  r.Counter(s[4]),
	}
}

// seriesOf names a tenant's series, in the order of instruments' fields.
func seriesOf(name string) []string {
	p := "tenant." + name + "."
	return []string{p + "match.ms", p + "update.ms", p + "ops", p + "throttled", p + "inbox_overflow"}
}

// Admit charges one command against the tenant's admission limits and
// marks the session used. op is the accounting class — "match" (any
// routed read), "update" or "watch". Every class pays one command
// token; "update" additionally requires the affected-set budget to be
// non-negative (its real cost lands later, via ChargeAffected). A
// refusal returns *ErrThrottled and costs the tenant nothing.
func (m *Manager) Admit(tenant, op string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.touch(tenant)
	if err != nil {
		return err
	}
	now := m.now()
	// Budget first: refusing before the command bucket is debited keeps
	// a budget-blocked tenant from also burning its rate tokens on
	// requests that cannot be served.
	if ups := m.cfg.AffectedPerSec; ups > 0 && op == "update" {
		st.budget.refill(now, ups, m.cfg.affectedBurst())
		if wait := st.budget.deficit(ups); wait > 0 {
			st.throttled++
			st.im.throttled.Inc()
			return &ErrThrottled{Tenant: tenant, Reason: "budget", RetryAfter: wait}
		}
	}
	if qps := m.cfg.RateQPS; qps > 0 {
		st.rate.refill(now, qps, m.cfg.rateBurst())
		if wait, ok := st.rate.take(1, qps); !ok {
			st.throttled++
			st.im.throttled.Inc()
			return &ErrThrottled{Tenant: tenant, Reason: "rate", RetryAfter: wait}
		}
	}
	st.im.ops.Inc()
	return nil
}

// ChargeAffected debits an accepted update's real cost — the
// coordinator-computed affected-set size — from the tenant's budget.
// Post-paid: the balance may go negative, refusing the tenant's next
// updates until the refill clears the debt.
func (m *Manager) ChargeAffected(tenant string, affected int) {
	if m.cfg.AffectedPerSec <= 0 || affected <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.tenants[tenant]
	if !ok {
		return
	}
	st.budget.refill(m.now(), m.cfg.AffectedPerSec, m.cfg.affectedBurst())
	st.budget.spend(float64(affected))
}

// Observe records one served command's latency in the tenant's
// histograms: op "update" lands in tenant.<name>.update.ms, everything
// else in tenant.<name>.match.ms. The windowed percentile layer
// (obs.Windows) picks both up, so per-tenant p95 shows at
// /metrics?window=1 with no extra bookkeeping here.
func (m *Manager) Observe(tenant, op string, start time.Time) {
	m.mu.Lock()
	var im *instruments
	if st, ok := m.tenants[tenant]; ok {
		im = st.im
	}
	m.mu.Unlock()
	if im == nil {
		return
	}
	if op == "update" {
		im.updateMS.ObserveSince(start)
	} else {
		im.matchMS.ObserveSince(start)
	}
}
