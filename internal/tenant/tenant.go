// Package tenant multiplexes many client sessions over one shared
// fragmentation and one coordinator write path.
//
// The cluster front end historically built a full cluster per TCP
// connection: correct, but k connections cost k fragmentations of the
// same graph and k copies of every watch. A Manager instead gives each
// client a *tenant session* — a private watch namespace, quotas, and a
// lifecycle (create, list, evict on disconnect or idle timeout) — while
// every session shares the single coordinator underneath.
//
// Namespacing is by name encoding: a tenant's watch "w" is registered on
// the coordinator as "tenant\x1fw" (GlobalName), so the shared watch
// table stays a plain map and failover re-registration (internal/ha)
// carries tenant watches for free, as opaque strings. An update's fan-out
// produces deltas for every tenant's watches at once; RecordDeltas
// projects them — the writer's own deltas are returned immediately under
// their local names, every other tenant's are coalesced into its pending
// inbox until that tenant drains them (the deltas command).
//
// A tenant needs nothing here to read its own writes: the coordinator
// writes every fragment copy before it accepts a batch, so whichever copy
// serves the tenant's next read already holds it.
package tenant

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// sep joins tenant and watch in a coordinator-global watch name. A unit
// separator: excluded from valid tenant and watch names (control
// character), so the encoding is unambiguous and SplitName can cut at the
// first occurrence.
const sep = "\x1f"

// GlobalName encodes a tenant-local watch name into the shared
// coordinator namespace.
func GlobalName(tenant, watch string) string { return tenant + sep + watch }

// SplitName decodes a coordinator-global watch name. Names without a
// separator predate the tenant layer (a journal written by an older
// build): they belong to the legacy tenant "".
func SplitName(global string) (tenant, watch string) {
	if i := strings.Index(global, sep); i >= 0 {
		return global[:i], global[i+1:]
	}
	return "", global
}

// checkName validates a tenant or watch name: non-empty, at most 128
// bytes, no control characters (which excludes sep and newlines — names
// travel in newline-delimited JSON and inside encoded global names).
func checkName(kind, name string) error {
	if name == "" {
		return fmt.Errorf("tenant: empty %s name", kind)
	}
	if len(name) > 128 {
		return fmt.Errorf("tenant: %s name longer than 128 bytes", kind)
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == 0x7f {
			return fmt.Errorf("tenant: %s name contains control character 0x%02x", kind, name[i])
		}
	}
	return nil
}

// Registrar is where tenant watches land: the shared coordinator's
// Watch/Unwatch, with global (encoded) names. The front end passes itself
// rather than the coordinator directly so the indirection survives graph
// rebuilds. *cluster.Coordinator satisfies it.
type Registrar interface {
	Watch(name string, q *core.Pattern) ([]graph.NodeID, error)
	Unwatch(name string) error
}

// Config bounds and instruments a Manager.
type Config struct {
	// MaxTenants caps live sessions (0 = 1024, negative = unlimited).
	MaxTenants int
	// MaxWatches caps standing patterns per tenant (0 = 16, negative =
	// unlimited) — the per-tenant replacement for the per-session cap a
	// shared coordinator's workers run without.
	MaxWatches int
	// IdleTimeout evicts named sessions with no attached connection and
	// no command for this long (0 = 15m, negative = never). Ephemeral
	// connection-scoped sessions die with their connection regardless.
	IdleTimeout time.Duration
	// RateQPS caps each tenant's admitted cluster commands — match,
	// update, watch — per second with a token bucket (0 = unlimited).
	// RateBurst is the bucket capacity (0 = 2×RateQPS, at least 1).
	RateQPS   float64
	RateBurst int
	// AffectedPerSec budgets each tenant's update work in affected-set
	// units per second: the focus candidates the workers re-judged
	// (UpdateResult.AffectedSize), i.e. what the update
	// actually cost the shared cluster. The budget is post-paid — see limits.go —
	// so a huge batch drives the balance negative rather than being
	// under-charged. 0 = unlimited. AffectedBurst is the bucket
	// capacity (0 = 4×AffectedPerSec, at least 1).
	AffectedPerSec float64
	AffectedBurst  int
	// MaxPendingIDs caps one watch's coalesced pending inbox — the
	// undrained added+removed ids RecordDeltas may accumulate for a
	// tenant that is not draining. On overflow the coalesced state is
	// dropped and the watch's next Drain carries Resync=true instead:
	// the client re-reads its answer set rather than silently losing
	// deltas, and the manager's memory stays bounded. 0 = 4096,
	// negative = unlimited.
	MaxPendingIDs int
	// Logf reports evictions; nil discards.
	Logf func(format string, args ...any)
	// Metrics registers aggregate tenant gauges/counters; nil disables.
	Metrics *obs.Registry
	// Now is the clock; nil means time.Now. Tests inject a fake to drive
	// idle eviction deterministically.
	Now func() time.Time
}

func (c Config) maxTenants() int {
	if c.MaxTenants == 0 {
		return 1024
	}
	return c.MaxTenants
}

func (c Config) maxWatches() int {
	if c.MaxWatches == 0 {
		return 16
	}
	return c.MaxWatches
}

func (c Config) idle() time.Duration {
	if c.IdleTimeout == 0 {
		return 15 * time.Minute
	}
	return c.IdleTimeout
}

func (c Config) rateBurst() float64 {
	if c.RateBurst > 0 {
		return float64(c.RateBurst)
	}
	if b := 2 * c.RateQPS; b > 1 {
		return b
	}
	return 1
}

func (c Config) affectedBurst() float64 {
	if c.AffectedBurst > 0 {
		return float64(c.AffectedBurst)
	}
	if b := 4 * c.AffectedPerSec; b > 1 {
		return b
	}
	return 1
}

func (c Config) pendingCap() int {
	if c.MaxPendingIDs == 0 {
		return 4096
	}
	return c.MaxPendingIDs
}

// pending is one watch's coalesced undrained delta: the net effect of
// every update since the tenant last drained. Coalescing is net-out — an
// answer added then removed between drains cancels to nothing — so the
// drained delta composes with the tenant's last seen answer set exactly
// as one big batch would have.
type pending struct {
	added    map[int64]bool
	removed  map[int64]bool
	affected int
	// resync marks a delta the tenant cannot reconstruct incrementally:
	// its inbox overflowed Config.MaxPendingIDs (the coalesced state was
	// dropped), or an update raced the watch's registration. The next
	// Drain carries the flag; the client re-reads the answer set.
	resync bool
}

// fold coalesces one update's delta into the entry: an id added and then
// removed (or the reverse) cancels out.
func (p *pending) fold(d server.WatchDelta) {
	for _, v := range d.Added {
		if p.removed[v] {
			delete(p.removed, v)
		} else {
			p.added[v] = true
		}
	}
	for _, v := range d.Removed {
		if p.added[v] {
			delete(p.added, v)
		} else {
			p.removed[v] = true
		}
	}
	p.affected += d.Affected
}

// delta is the entry as the watch's one delta, id lists sorted.
func (p *pending) delta(watch string) server.WatchDelta {
	return server.WatchDelta{Watch: watch, Added: sortedIDs(p.added), Removed: sortedIDs(p.removed), Affected: p.affected, Resync: p.resync}
}

// state is one live tenant session.
type state struct {
	watches   map[string]string   // local watch name -> pattern
	pend      map[string]*pending // local watch name -> undrained delta
	lastSeen  time.Time           // last command on behalf of this tenant
	refs      int                 // attached connections
	writes    int64
	reads     int64
	throttled int64        // commands refused by admission control
	overflow  int64        // pending inboxes dropped at the cap
	rate      bucket       // command admissions (limits.go)
	budget    bucket       // affected-set units, post-paid (limits.go)
	im        *instruments // per-tenant metric series
	gone      bool         // evicted; a concurrent Watch must not resurrect it
	ephemeral bool         // generated name: its series go with it
}

// ensurePending returns the watch's inbox, creating it empty if needed.
func (st *state) ensurePending(watch string) *pending {
	p := st.pend[watch]
	if p == nil {
		p = &pending{added: make(map[int64]bool), removed: make(map[int64]bool)}
		st.pend[watch] = p
	}
	return p
}

// Manager owns the tenant table. All methods are safe for concurrent use.
// Registrar calls (the coordinator's Watch/Unwatch fan-out) happen outside
// the Manager mutex: they pay cluster round trips and, through the front
// end, may take locks of their own.
type Manager struct {
	cfg Config
	reg Registrar

	mu       sync.Mutex
	tenants  map[string]*state
	nextAuto int // generator for ephemeral session names
	// deltaEpoch counts RecordDeltas calls. Watch snapshots it while its
	// slot is reserved; if it advanced by commit time, an update fanned
	// out between the coordinator's registration and the manager's
	// commit — its deltas for the new watch were dropped at the reserved
	// slot, so the watch starts life marked resync.
	deltaEpoch uint64

	stop chan struct{} // idle sweeper; nil until Start
	done chan struct{}

	mActive  *obs.Gauge
	mWatches *obs.Gauge
	mCreated *obs.Counter
	mEvicted *obs.Counter
	mExpired *obs.Counter
}

// NewManager builds a Manager registering watches on reg.
func NewManager(cfg Config, reg Registrar) *Manager {
	m := &Manager{cfg: cfg, reg: reg, tenants: make(map[string]*state)}
	if r := cfg.Metrics; r != nil {
		m.mActive = r.Gauge("tenant.active")   // live tenant sessions
		m.mWatches = r.Gauge("tenant.watches") // standing patterns across all tenants
		m.mCreated = r.Counter("tenant.created")
		m.mEvicted = r.Counter("tenant.evicted") // disconnect or endsession
		m.mExpired = r.Counter("tenant.expired") // idle timeout
	}
	return m
}

func (m *Manager) now() time.Time {
	if m.cfg.Now != nil {
		return m.cfg.Now()
	}
	return time.Now()
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Attach binds a connection to the named session, creating it if needed;
// an empty name creates a fresh session under a generated name. Returns
// the (possibly generated) name. Every Attach must be paired with a
// Release.
func (m *Manager) Attach(name string) (string, error) {
	if name != "" {
		if err := checkName("session", name); err != nil {
			return "", err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ephemeral := name == ""
	if ephemeral {
		for {
			m.nextAuto++
			name = fmt.Sprintf("s-%d", m.nextAuto)
			if _, taken := m.tenants[name]; !taken {
				break
			}
		}
	}
	st, ok := m.tenants[name]
	if !ok {
		if max := m.cfg.maxTenants(); max > 0 && len(m.tenants) >= max {
			return "", fmt.Errorf("tenant: session limit of %d reached", max)
		}
		st = &state{
			watches:   make(map[string]string),
			pend:      make(map[string]*pending),
			im:        m.instruments(name),
			ephemeral: ephemeral,
		}
		m.tenants[name] = st
		m.mCreated.Inc()
		m.mActive.Set(int64(len(m.tenants)))
	}
	st.refs++
	st.lastSeen = m.now()
	return name, nil
}

// Release drops a connection's hold on the session. With evict true (the
// connection-scoped ephemeral case) the session is evicted once no
// connection holds it; otherwise it lingers until the idle sweeper
// collects it.
func (m *Manager) Release(name string, evict bool) {
	m.mu.Lock()
	st, ok := m.tenants[name]
	if !ok {
		m.mu.Unlock()
		return
	}
	if st.refs > 0 {
		st.refs--
	}
	st.lastSeen = m.now()
	last := st.refs == 0
	m.mu.Unlock()
	if evict && last {
		// Conditionally: a concurrent Attach in this unlocked window
		// re-acquires the session and must not have it torn down
		// underneath.
		m.evict(name, true)
	}
}

// touch requires the session to exist and marks it used.
func (m *Manager) touch(name string) (*state, error) {
	st, ok := m.tenants[name]
	if !ok {
		return nil, fmt.Errorf("tenant: no session named %q", name)
	}
	st.lastSeen = m.now()
	return st, nil
}

// Watch registers a standing pattern in the tenant's namespace and
// returns the initial answer set. The coordinator round trip happens
// outside the Manager mutex; the slot is reserved first so concurrent
// watches respect the quota, and committed (or abandoned) after.
func (m *Manager) Watch(tenant, watch string, q *core.Pattern) ([]graph.NodeID, error) {
	if err := checkName("watch", watch); err != nil {
		return nil, err
	}
	m.mu.Lock()
	st, err := m.touch(tenant)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}
	if _, dup := st.watches[watch]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("tenant: watch %q already registered in session %q", watch, tenant)
	}
	if max := m.cfg.maxWatches(); max > 0 && len(st.watches) >= max {
		m.mu.Unlock()
		return nil, fmt.Errorf("tenant: session %q limit of %d standing patterns reached", tenant, max)
	}
	st.watches[watch] = "" // reserve the slot against concurrent quota races
	epoch := m.deltaEpoch
	m.mu.Unlock()

	initial, err := m.reg.Watch(GlobalName(tenant, watch), q)

	m.mu.Lock()
	if err != nil {
		delete(st.watches, watch)
		m.mu.Unlock()
		return nil, err
	}
	if st.gone {
		// The session was evicted while the fan-out was in flight; its
		// eviction already unwatched what it knew about, so clean up the
		// straggler ourselves.
		m.mu.Unlock()
		_ = m.reg.Unwatch(GlobalName(tenant, watch))
		return nil, fmt.Errorf("tenant: session %q evicted", tenant)
	}
	st.watches[watch] = q.String()
	if m.deltaEpoch != epoch {
		// An update fanned out while the registration was in flight:
		// RecordDeltas saw only the reserved slot and dropped whatever
		// the update changed under this watch, and the initial answer
		// set returned above may predate that update. The client cannot
		// tell which — so its first Drain says resync instead of
		// pretending the delta stream is complete.
		st.ensurePending(watch).resync = true
	}
	m.mWatches.Add(1)
	m.mu.Unlock()
	return initial, nil
}

// Unwatch removes a standing pattern from the tenant's namespace.
func (m *Manager) Unwatch(tenant, watch string) error {
	m.mu.Lock()
	st, err := m.touch(tenant)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	if _, ok := st.watches[watch]; !ok {
		m.mu.Unlock()
		return fmt.Errorf("tenant: no watch named %q in session %q", watch, tenant)
	}
	m.mu.Unlock()

	if err := m.reg.Unwatch(GlobalName(tenant, watch)); err != nil {
		return err
	}

	m.mu.Lock()
	// Re-check under the lock: an eviction that ran during the registrar
	// round trip saw the still-committed watch and already accounted for
	// it (and unwatches it best-effort), so decrementing again here would
	// drift mWatches below the true count. Only the path that still finds
	// the watch in a live session owns its accounting.
	if _, ok := st.watches[watch]; ok && !st.gone {
		delete(st.watches, watch)
		delete(st.pend, watch)
		m.mWatches.Add(-1)
	}
	m.mu.Unlock()
	return nil
}

// RecordDeltas routes one update's merged watch deltas (global names) to
// their tenants. The writer's own deltas are returned immediately, renamed
// to local watch names — its response carries them, read-your-writes
// style. A watch of the writer's with deltas still waiting in its inbox
// (other tenants' earlier updates) gets its own delta folded into them and
// the coalesced entry returned in their place, so a client that folds
// replies and drains in arrival order never applies an older change after
// a newer one. Every other tenant's deltas are coalesced into that tenant's
// pending inbox for its next Drain, bounded per watch by
// Config.MaxPendingIDs: a tenant that never drains overflows, loses its
// coalesced state, and is told to resync — it cannot grow the manager
// without bound. Deltas for unknown tenants or watches (races with
// eviction) are dropped.
func (m *Manager) RecordDeltas(writer string, deltas []server.WatchDelta) []server.WatchDelta {
	var own []server.WatchDelta
	m.mu.Lock()
	defer m.mu.Unlock()
	m.deltaEpoch++
	limit := m.cfg.pendingCap()
	for _, d := range deltas {
		tn, watch := SplitName(d.Watch)
		st, ok := m.tenants[tn]
		if !ok {
			continue
		}
		if pattern, ok := st.watches[watch]; !ok || pattern == "" {
			// Unknown, or a reserved slot whose registration is still in
			// flight: the watch's initial answer set has not been returned
			// yet, so a delta against it is meaningless to the client.
			// Watch notices the dropped delta through deltaEpoch and marks
			// the committed watch resync.
			continue
		}
		if tn == writer {
			if p := st.pend[watch]; p != nil {
				p.fold(d)
				own = append(own, p.delta(watch))
				delete(st.pend, watch)
			} else {
				own = append(own, server.WatchDelta{Watch: watch, Added: d.Added, Removed: d.Removed, Affected: d.Affected})
			}
			continue
		}
		p := st.ensurePending(watch)
		p.fold(d)
		if limit > 0 && len(p.added)+len(p.removed) > limit {
			// Overflow: drop the oldest state — everything coalesced so
			// far — and flag the watch. The flag survives until drained,
			// so the client learns it must re-read even if later deltas
			// fit under the cap again.
			p.added = make(map[int64]bool)
			p.removed = make(map[int64]bool)
			p.resync = true
			st.overflow++
			st.im.overflow.Inc()
		}
	}
	slices.SortFunc(own, byWatch)
	return own
}

// Drain returns and clears the tenant's pending deltas, sorted by watch
// name with sorted id lists. Watches whose pending delta netted out to
// nothing are omitted unless re-verification touched them (Affected > 0)
// or they carry a Resync marker — an overflowed or registration-raced
// watch reports Resync even with empty sets, because "re-read your
// answers" is exactly the information the drain must deliver.
func (m *Manager) Drain(tenant string) ([]server.WatchDelta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.touch(tenant)
	if err != nil {
		return nil, err
	}
	var out []server.WatchDelta
	for watch, p := range st.pend {
		if len(p.added) == 0 && len(p.removed) == 0 && p.affected == 0 && !p.resync {
			continue
		}
		out = append(out, p.delta(watch))
	}
	st.pend = make(map[string]*pending)
	slices.SortFunc(out, byWatch)
	return out, nil
}

// byWatch orders deltas by watch name.
func byWatch(a, b server.WatchDelta) int { return strings.Compare(a.Watch, b.Watch) }

func sortedIDs(set map[int64]bool) []int64 {
	if len(set) == 0 {
		return nil
	}
	ids := make([]int64, 0, len(set))
	for v := range set {
		ids = append(ids, v)
	}
	slices.Sort(ids)
	return ids
}

// NoteWrite counts an accepted update on behalf of the tenant. version is
// unused: benchmark/ passes it; delete after ROADMAP 1(a).
func (m *Manager) NoteWrite(tenant string, version uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.tenants[tenant]; ok {
		st.writes++
		st.lastSeen = m.now()
	}
}

// NoteRead counts a routed read on behalf of the tenant.
func (m *Manager) NoteRead(tenant string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.tenants[tenant]; ok {
		st.reads++
		st.lastSeen = m.now()
	}
}

// Watches returns the tenant's local watch names, sorted.
func (m *Manager) Watches(tenant string) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.tenants[tenant]
	if !ok {
		return nil
	}
	names := make([]string, 0, len(st.watches))
	for w := range st.watches {
		names = append(names, w)
	}
	slices.Sort(names)
	return names
}

// List describes the live sessions, sorted by name.
func (m *Manager) List() []server.TenantInfo {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]server.TenantInfo, 0, len(m.tenants))
	for name, st := range m.tenants {
		ids := 0
		for _, p := range st.pend {
			ids += len(p.added) + len(p.removed)
		}
		out = append(out, server.TenantInfo{
			Name:       name,
			Watches:    len(st.watches),
			Writes:     st.writes,
			Reads:      st.reads,
			Pending:    len(st.pend),
			PendingIDs: ids,
			Throttled:  st.throttled,
			Overflows:  st.overflow,
			IdleMS:     now.Sub(st.lastSeen).Milliseconds(),
			Conns:      st.refs,
		})
	}
	slices.SortFunc(out, func(a, b server.TenantInfo) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Evict removes the session, unregistering its watches from the shared
// coordinator. Idempotent; the registrar round trips happen outside the
// Manager mutex.
func (m *Manager) Evict(name string) { m.evict(name, false) }

// evict implements Evict, reporting whether the session was removed.
// The unattachedOnly paths (last-ref Release, the idle sweeper) decide
// to evict outside the lock, so they re-check refs here: a concurrent
// Attach that won the lock in between keeps its freshly acquired
// session.
func (m *Manager) evict(name string, unattachedOnly bool) bool {
	m.mu.Lock()
	st, ok := m.tenants[name]
	if !ok {
		m.mu.Unlock()
		return false
	}
	if unattachedOnly && st.refs > 0 {
		m.mu.Unlock()
		return false
	}
	st.gone = true
	delete(m.tenants, name)
	watches := make([]string, 0, len(st.watches))
	for w, pattern := range st.watches {
		if pattern == "" {
			continue // reserved but never committed; its Watch cleans up
		}
		watches = append(watches, w)
	}
	slices.Sort(watches)
	m.mEvicted.Inc()
	m.mActive.Set(int64(len(m.tenants)))
	m.mWatches.Add(-int64(len(watches)))
	if st.ephemeral {
		m.cfg.Metrics.Remove(seriesOf(name)...)
	}
	m.mu.Unlock()

	for _, w := range watches {
		if err := m.reg.Unwatch(GlobalName(name, w)); err != nil {
			// Best effort: on a failed/rebuilt coordinator the watch is
			// already gone; anything else fail-stops the cluster itself.
			m.logf("tenant: evict %s: unwatch %s: %v", name, w, err)
		}
	}
	return true
}

// EvictIdle evicts named sessions with no attached connection that have
// been idle past the timeout. Returns the evicted names, sorted.
func (m *Manager) EvictIdle() []string {
	timeout := m.cfg.idle()
	if timeout < 0 {
		return nil
	}
	now := m.now()
	m.mu.Lock()
	var idle []string
	for name, st := range m.tenants {
		if st.refs == 0 && now.Sub(st.lastSeen) > timeout {
			idle = append(idle, name)
		}
	}
	m.mu.Unlock()
	slices.Sort(idle)
	evicted := idle[:0]
	for _, name := range idle {
		// Conditionally: a client may have attached since the scan above.
		if !m.evict(name, true) {
			continue
		}
		m.logf("tenant: session %s idle past %v, evicted", name, timeout)
		m.mExpired.Inc()
		evicted = append(evicted, name)
	}
	return evicted
}

// Start launches the idle sweeper. Stop with Stop.
func (m *Manager) Start() {
	if m.cfg.idle() < 0 || m.stop != nil {
		return
	}
	interval := m.cfg.idle() / 4
	if interval < time.Second {
		interval = time.Second
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				m.EvictIdle()
			}
		}
	}(m.stop, m.done)
}

// Stop halts the idle sweeper.
func (m *Manager) Stop() {
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop = nil
	m.done = nil
}

// Restore rebuilds the tenant table from the journal-recovered watch set
// (global name → pattern, decoded with SplitName): the watches are already
// live on the recovered coordinator, so no registrar round trips. Sessions
// restore with zero connections; they persist until attached or
// idle-evicted. Bare legacy names (a pre-tenant journal) stay registered
// on the coordinator but belong to no session.
func (m *Manager) Restore(watches map[string]string) {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	total := int64(0)
	for name, pattern := range watches {
		tn, w := SplitName(name)
		if tn == "" {
			continue
		}
		st, ok := m.tenants[tn]
		if !ok {
			st = &state{
				watches: make(map[string]string),
				pend:    make(map[string]*pending),
				im:      m.instruments(tn),
			}
			m.tenants[tn] = st
			st.lastSeen = now
		}
		if _, dup := st.watches[w]; !dup {
			st.watches[w] = pattern
			total++
		}
	}
	m.mActive.Set(int64(len(m.tenants)))
	m.mWatches.Add(total)
}

// Reset drops every session's watch table and pending deltas — the shared
// graph was rebuilt (gen/load), so registered watches no longer exist on
// the coordinator. Sessions themselves survive: attached connections keep
// their names.
func (m *Manager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	dropped := int64(0)
	for _, st := range m.tenants {
		dropped += int64(len(st.watches))
		st.watches = make(map[string]string)
		st.pend = make(map[string]*pending)
	}
	m.mWatches.Add(-dropped)
}
