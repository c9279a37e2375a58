package ha

// The model harness: a seeded schedule of tenant and cluster operations
// against a journaled, replicated cluster, in which every pooled worker
// session may lose a request or a reply. After every step the cluster is
// checked against a single-process model: one graph.Versioned graph, and
// one dynamic.Matcher per standing watch over it. The rules:
//
//   - (i) a successful update's merged deltas, routed to each tenant, are
//     the oracles' deltas;
//   - (ii) an operation that fail-stops the coordinator is durable exactly
//     when the coordinator journals it before its fan-out: a fail-stopped
//     update is applied after the restart, and a fail-stopped watch or
//     unwatch is undone by it;
//   - (iii) an error without a fail-stop changed nothing.
//
// Each run is a subtest seed=N; -v prints its transcript of operations,
// faults and outcomes, and FuzzClusterModel runs the same code on new
// seeds:
//
//	go test ./internal/ha -run 'TestClusterModel/seed=N' -v

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/server"
	"repro/internal/tenant"
)

var chaosPatterns = []string{
	"qgp\nn xo person *\nn z person\ne xo z follow >=3\n",
	"qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p bad_rating =0\n",
}

func mustParse(t testing.TB, dsl string) *core.Pattern {
	t.Helper()
	q, err := core.Parse(dsl)
	if err != nil {
		t.Fatalf("parse %q: %v", dsl, err)
	}
	return q
}

func oracleAnswers(t testing.TB, g *graph.Graph, q *core.Pattern) []graph.NodeID {
	t.Helper()
	res, err := match.QMatch(g, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

func emptyNotNil(vs []graph.NodeID) []graph.NodeID {
	if vs == nil {
		return []graph.NodeID{}
	}
	return vs
}

const (
	modelSeeds = 24
	modelSteps = 60
	// faultRate is the chance that a request is lost: half of it before
	// the worker applies the request, half after. In a storm step it is
	// stormRate, at which failover runs out of sessions and the coordinator
	// fail-stops.
	faultRate = 0.04
	stormRate = 0.4
	idle      = 10 * time.Minute
)

var modelTenants = []string{"alice", "bob"}

// modelCommands are the requests a fault can hit; "mirror" is an update
// forwarded to a warm replica.
var modelCommands = []string{"fragment", "update", "mirror", "watch", "unwatch", "match", "ping"}

func TestClusterModel(t *testing.T) {
	var mu sync.Mutex
	runs, stops, refusals, restarts := 0, 0, 0, 0
	fired := make(map[string]int)
	workers, replicas := make(map[int]bool), make(map[int]bool)
	t.Cleanup(func() {
		if runs < modelSeeds {
			return // a -run filter, or a failed seed
		}
		for _, cmd := range modelCommands {
			for _, kind := range []string{"request", "reply"} {
				if fired[cmd+" "+kind] == 0 {
					t.Errorf("no %s lost its %s in %d seeds", cmd, kind, runs)
				}
			}
		}
		if restarts == 0 || len(workers) != 3 || len(replicas) != 3 {
			t.Errorf("%d restarts, workers %v, replicas %v: want a restart and every count", restarts, workers, replicas)
		}
		t.Logf("%d seeds: faults %v; %d fail-stops, %d refused reads, %d restarts", runs, fired, stops, refusals, restarts)
	})
	for seed := int64(1); seed <= modelSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			h := runModel(t, seed)
			mu.Lock()
			defer mu.Unlock()
			runs, stops, refusals, restarts = runs+1, stops+h.stops, refusals+h.refusals, restarts+h.restarts
			for k, n := range h.f.fired {
				fired[k] += n
			}
			for _, w := range h.workers {
				workers[w] = true
			}
			replicas[h.replicas] = true
		})
	}
}

func FuzzClusterModel(f *testing.F) {
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, seed int64) { runModel(t, seed) })
}

// TestClusterModelReplay: a seed replays, line for line. Seed 2 keeps one
// copy per fragment; 38 and 57 run several, so which copy serves a read
// must not hang on timing either.
func TestClusterModelReplay(t *testing.T) {
	for _, seed := range []int64{2, 38, 57} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a, b := runModel(t, seed), runModel(t, seed)
			if multi := a.replicas != 1; multi != (seed != 2) {
				t.Fatalf("seed %d runs %d copies per fragment", seed, a.replicas)
			}
			for i := range max(len(a.log), len(b.log)) {
				if i >= len(a.log) || i >= len(b.log) || a.log[i] != b.log[i] {
					t.Fatalf("transcripts part at line %d of %d and %d", i, len(a.log), len(b.log))
				}
			}
		})
	}
}

// faults wraps every pooled session. Whether a request is lost depends on
// the seed and the request's place in its fragment's request sequence
// only, never on the session that carries it, so a fault schedule holds
// whichever copy of a fragment serves a request.
type faults struct {
	mu       sync.Mutex
	seed     int64
	rate     float64
	build    int        // coordinator builds so far, each a fresh fragmentation
	frags    []*fragSeq // the current build's fragments
	primary  int        // primaries of the build dialed so far
	sessions []*faulty  // the build's sessions, in the order they were placed
	events   []string   // this step's faults
	fired    map[string]int
	bad      error
}

// fragSeq is one fragment's request sequence.
type fragSeq struct {
	id       int
	owned    []int64 // the first shipment's owned list: a prefix of every later one
	sessions int
	pos      int
	// batch is the last update sent to the fragment, at batchPos. The same
	// batch again is a mirror to a replica, told apart by the replica's
	// ordinal since mirrors run concurrently, unless the batch was lost on
	// the primary and is being replayed.
	batch    string
	batchPos int
	replay   bool
}

type faulty struct {
	cluster.Transport
	f       *faults
	frag    *fragSeq
	ordinal int
	closed  atomic.Bool
}

var errLost = errors.New("model: request or reply lost")

func (s *faulty) Do(req *server.Request) (*server.Response, error) {
	if s.closed.Load() {
		return nil, errors.New("model: session closed")
	}
	switch s.f.decide(s, req) {
	case "request":
		s.Close()
		return nil, errLost
	case "reply":
		s.Transport.Do(req) // applied; what is lost is the reply
		s.Close()
		return nil, errLost
	}
	return s.Transport.Do(req)
}

func (s *faulty) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.Transport.Close()
}

// newBuild starts a fragmentation over n workers, whose primaries are the
// next n sessions dialed.
func (f *faults) newBuild(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.build++
	f.frags, f.primary, f.sessions = make([]*fragSeq, n), 0, nil
	for i := range f.frags {
		f.frags[i] = &fragSeq{id: i}
	}
}

func (f *faults) dial(int) (cluster.Transport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := &faulty{Transport: cluster.InProcess(server.Config{}), f: f}
	if f.primary < len(f.frags) {
		s.frag = f.frags[f.primary]
		s.frag.sessions++
		f.primary++
		f.sessions = append(f.sessions, s)
	}
	return s, nil
}

// decide places req in its fragment's sequence and draws its fault: "",
// "request" or "reply".
func (f *faults) decide(s *faulty, req *server.Request) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.frag == nil {
		// A copy's first request ships it: the fragment whose first
		// shipment owned a prefix of what this one owns.
		for _, fs := range f.frags {
			if fs.owned != nil && len(fs.owned) <= len(req.Owned) && slices.Equal(fs.owned, req.Owned[:len(fs.owned)]) &&
				(s.frag == nil || len(fs.owned) > len(s.frag.owned)) {
				s.frag = fs
			}
		}
		if s.frag == nil {
			f.bad = fmt.Errorf("a %s request on a session of no known fragment", req.Cmd)
			return ""
		}
		s.ordinal = s.frag.sessions
		s.frag.sessions++
		f.sessions = append(f.sessions, s)
	}
	fs := s.frag
	if fs.owned == nil && req.Cmd == "fragment" {
		fs.owned = req.Owned
	}
	cmd, pos, ordinal := req.Cmd, 0, -1
	var batch string
	if cmd == "update" {
		batch = fmt.Sprint(req.Updates, req.Owned)
	}
	if cmd == "update" && batch == fs.batch && !fs.replay {
		cmd, pos, ordinal = "mirror", fs.batchPos, s.ordinal
	} else {
		fs.pos++
		pos = fs.pos
		fs.batch, fs.batchPos, fs.replay = batch, pos, false
	}
	h := uint64(f.seed)
	for _, k := range []int{f.build, fs.id, pos, ordinal} {
		h = splitmix(h ^ uint64(k))
	}
	kind := ""
	switch u := float64(h>>11) / (1 << 53); {
	case u >= f.rate:
		return ""
	case u < f.rate/2:
		kind = "request"
	default:
		kind = "reply"
	}
	fs.replay = fs.replay || cmd == "update"
	f.fired[cmd+" "+kind]++
	f.events = append(f.events, fmt.Sprintf("  fault: fragment %d copy %d, request %d: %s lost its %s", fs.id, s.ordinal, pos, cmd, kind))
	return kind
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// modelWatch is one standing watch: its oracle and the answers its tenant
// has accumulated — the initial answers plus every delta delivered, re-read
// after a restart or a resync.
type modelWatch struct {
	q     *core.Pattern
	m     *dynamic.Matcher
	acc   map[graph.NodeID]bool
	stale bool // deltas wait in the tenant's inbox
}

func (w *modelWatch) reset(ids []graph.NodeID) {
	w.acc, w.stale = make(map[graph.NodeID]bool), false
	for _, v := range ids {
		w.acc[v] = true
	}
}

func (w *modelWatch) fold(d server.WatchDelta) {
	for _, v := range d.Added {
		w.acc[graph.NodeID(v)] = true
	}
	for _, v := range d.Removed {
		delete(w.acc, graph.NodeID(v))
	}
}

type harness struct {
	t        testing.TB
	r        *rand.Rand
	seed     int64
	step     int
	log      []string
	f        *faults
	pool     *Pool
	dir      string
	replicas int
	workers  []int // per build that served
	j        *Journal
	c        *cluster.Coordinator
	mgr      *tenant.Manager
	mon      *Monitor
	now      time.Time
	model    *graph.Versioned
	watches  map[string]*modelWatch // by global name
	live     map[string]bool        // tenants holding a session
	seen     map[string]time.Time   // a tenant's last command

	stops, refusals, restarts int
}

func quiet(string, ...interface{}) {}

func runModel(t testing.TB, seed int64) *harness {
	r := rand.New(rand.NewSource(seed))
	workers, replicas, persons := []int{1, 2, 4}[r.Intn(3)], 1+r.Intn(3), 150+r.Intn(91)
	h := &harness{t: t, r: r, seed: seed, f: &faults{seed: seed, rate: faultRate, fired: make(map[string]int)}, dir: t.TempDir(),
		replicas: replicas, now: time.Unix(0, 0), watches: make(map[string]*modelWatch),
		live: make(map[string]bool), seen: make(map[string]time.Time)}
	t.Cleanup(func() {
		if t.Failed() || testing.Verbose() {
			t.Log("transcript:\n" + strings.Join(h.log, "\n"))
		}
	})
	h.pool = NewSpawnPool(6, server.Config{})
	h.pool.dial = h.f.dial
	g := gen.Social(gen.DefaultSocial(persons, seed))
	h.model = graph.NewVersioned(g.Clone())
	var err error
	if h.j, err = OpenJournal(h.dir, JournalOptions{Logf: quiet}); err != nil {
		t.Fatal(err)
	}
	h.logf("seed=%d workers=%d replicas=%d persons=%d", seed, workers, replicas, persons)
	h.c = h.build(workers, func(ts []cluster.Transport) (*cluster.Coordinator, error) {
		return cluster.New(g, ts, h.config())
	})
	t.Cleanup(func() { h.c.Close(); h.j.Close() })
	h.attachManager(nil)
	for h.step = 1; h.step <= modelSteps; h.step++ {
		h.now = h.now.Add(time.Duration(h.r.Intn(5)) * time.Minute)
		h.do(modelTenants[h.r.Intn(len(modelTenants))])
		if h.stopped() {
			h.stops++
			h.logf("  fail-stop")
			h.restart()
		}
		h.flush()
		h.check()
	}
	h.finish()
	return h
}

func (h *harness) logf(format string, args ...interface{}) {
	h.log = append(h.log, fmt.Sprintf("%d ", h.step)+fmt.Sprintf(format, args...))
}

func (h *harness) fatalf(format string, args ...interface{}) {
	h.t.Helper()
	h.t.Fatalf("seed %d step %d: %s", h.seed, h.step, fmt.Sprintf(format, args...))
}

// flush moves the step's faults into the transcript, sorted: mirrors to
// several replicas run concurrently.
func (h *harness) flush() {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	sort.Strings(h.f.events)
	h.log, h.f.events = append(h.log, h.f.events...), nil
	if h.f.bad != nil {
		h.fatalf("%v", h.f.bad)
	}
}

func outcome(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

func (h *harness) config() cluster.Config {
	return cluster.Config{D: 2, Replicas: h.replicas, Pool: h.pool, Journal: h.j, Logf: quiet}
}

// build fragments the graph over workers fresh primaries, trying again
// while a fault fails the build.
func (h *harness) build(workers int, mk func([]cluster.Transport) (*cluster.Coordinator, error)) *cluster.Coordinator {
	for attempt := 1; attempt <= 20; attempt++ {
		h.f.newBuild(workers)
		ts, err := h.pool.Primaries(workers)
		if err != nil {
			h.fatalf("primaries: %v", err)
		}
		c, err := mk(ts)
		h.logf("build over %d workers: %s", workers, outcome(err))
		if err == nil {
			h.workers = append(h.workers, workers)
			return c
		}
		cluster.CloseAll(ts)
	}
	h.fatalf("no build in 20 attempts")
	return nil
}

// attachManager puts a tenant manager and a monitor on the coordinator,
// the manager restored from a recovered watch set.
func (h *harness) attachManager(recovered map[string]string) {
	h.mgr = tenant.NewManager(tenant.Config{IdleTimeout: idle, Now: func() time.Time { return h.now }}, h.c)
	h.mgr.Restore(recovered)
	h.mon = NewMonitor(h.c, MonitorConfig{})
	h.live = make(map[string]bool)
	for name := range recovered {
		tn, _ := tenant.SplitName(name)
		h.live[tn], h.seen[tn] = true, h.now
	}
}

// stopped reports whether the coordinator fail-stopped: Unwatch of a name
// no watch holds answers without worker traffic, refusing if it refuses.
func (h *harness) stopped() bool {
	err := h.c.Unwatch("")
	return err != nil && strings.Contains(err.Error(), "failed earlier")
}

func (h *harness) sortedWatches() []string {
	names := make([]string, 0, len(h.watches))
	for name := range h.watches {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (h *harness) setRate(rate float64) {
	h.f.mu.Lock()
	h.f.rate = rate
	h.f.mu.Unlock()
}

// do runs one operation drawn from the schedule on behalf of tenant tn.
func (h *harness) do(tn string) {
	if h.r.Intn(10) == 0 {
		h.logf("storm")
		h.setRate(stormRate)
		defer h.setRate(faultRate)
	}
	if !h.live[tn] {
		if _, err := h.mgr.Attach(tn); err != nil {
			h.fatalf("attach %s: %v", tn, err)
		}
		h.mgr.Release(tn, false)
		h.live[tn], h.seen[tn] = true, h.now
		h.logf("attach %s", tn)
		return
	}
	local := fmt.Sprintf("w%d", h.r.Intn(2))
	switch p := h.r.Intn(100); {
	case p < 30:
		h.update(tn)
	case p < 42:
		q := mustParse(h.t, chaosPatterns[h.r.Intn(len(chaosPatterns))])
		initial, err := h.mgr.Watch(tn, local, q)
		h.seen[tn] = h.now
		h.logf("watch %s/%s: %s", tn, local, outcome(err))
		if err != nil {
			return // (ii), (iii): a failed watch leaves none behind
		}
		m, err := dynamic.NewMatcher(h.model.Graph(), q)
		if err != nil {
			h.fatalf("oracle: %v", err)
		}
		if !reflect.DeepEqual(emptyNotNil(initial), emptyNotNil(m.Answers())) {
			h.fatalf("watch %s/%s: initial answers %v, oracle %v", tn, local, initial, m.Answers())
		}
		w := &modelWatch{q: q, m: m}
		w.reset(initial)
		h.watches[tenant.GlobalName(tn, local)] = w
	case p < 52:
		err := h.mgr.Unwatch(tn, local)
		h.seen[tn] = h.now
		h.logf("unwatch %s/%s: %s", tn, local, outcome(err))
		if err == nil {
			delete(h.watches, tenant.GlobalName(tn, local))
		}
	case p < 64:
		q := mustParse(h.t, chaosPatterns[h.r.Intn(len(chaosPatterns))])
		res, err := h.c.Match(q)
		h.mgr.NoteRead(tn)
		h.seen[tn] = h.now
		h.logf("match %s: %s", tn, outcome(err))
		if err != nil {
			h.refusals++
		} else if want := oracleAnswers(h.t, h.model.Graph(), q); !reflect.DeepEqual(emptyNotNil(res.Matches), emptyNotNil(want)) {
			h.fatalf("match: cluster %v, single process %v", res.Matches, want)
		}
	case p < 72:
		h.drain(tn)
	case p < 75:
		h.mgr.Evict(tn)
		h.logf("evict %s", tn)
		h.evicted(tn)
	case p < 79:
		var want []string
		for _, name := range modelTenants {
			if h.live[name] && h.now.Sub(h.seen[name]) > idle {
				want = append(want, name)
			}
		}
		got := h.mgr.EvictIdle()
		h.logf("evict idle: %v", got)
		if !slices.Equal(got, want) {
			h.fatalf("evicted idle %v, want %v", got, want)
		}
		for _, name := range got {
			h.evicted(name)
		}
	case p < 86:
		err := h.mon.Check()
		h.logf("monitor check: %s", outcome(err))
		if err != nil {
			h.fatalf("monitor check: %v", err)
		}
	case p < 90:
		_, err := h.c.Repair()
		h.logf("repair: %s", outcome(err))
	case p < 97:
		h.f.mu.Lock()
		var open []*faulty
		for _, s := range h.f.sessions {
			if !s.closed.Load() {
				open = append(open, s)
			}
		}
		h.f.mu.Unlock()
		// Fragments place their copies concurrently: pick in fragment order.
		slices.SortFunc(open, func(a, b *faulty) int { return cmp.Or(a.frag.id-b.frag.id, a.ordinal-b.ordinal) })
		if len(open) > 0 {
			s := open[h.r.Intn(len(open))]
			h.logf("close fragment %d copy %d", s.frag.id, s.ordinal)
			s.Close()
		}
	default:
		h.restart()
	}
}

// update sends a random batch on behalf of tn and checks rule (i) on
// what comes back to tn; every other tenant's deltas wait in its inbox.
func (h *harness) update(tn string) {
	n := int64(h.model.Graph().NumNodes())
	batch := randomBatch(h.r, &n)
	res, err := h.c.Update(batch)
	h.logf("update %s, %d mutations: %s", tn, len(batch), outcome(err))
	if err != nil && !h.stopped() {
		return // (iii)
	}
	// Applied, or fail-stopped after the journal took it (ii).
	ups, perr := server.ToUpdates(batch)
	old, aerr := h.model.Apply(ups)
	if perr != nil || aerr != nil {
		h.fatalf("model apply: %v, %v", perr, aerr)
	}
	want := make(map[string]dynamic.Delta)
	for name, w := range h.watches {
		if want[name], aerr = w.m.ApplyShared(old, h.model.Graph(), nil); aerr != nil {
			h.fatalf("oracle: %v", aerr)
		}
	}
	if err != nil {
		return
	}
	h.mgr.NoteWrite(tn, res.Version)
	h.seen[tn] = h.now
	own := make(map[string]server.WatchDelta)
	for _, d := range h.mgr.RecordDeltas(tn, res.Deltas) {
		own[d.Watch] = d
	}
	for _, d := range res.Deltas {
		if wt, _ := tenant.SplitName(d.Watch); wt != tn && len(d.Added)+len(d.Removed) > 0 && h.watches[d.Watch] != nil {
			h.watches[d.Watch].stale = true
		}
	}
	// The writer folds its reply as it arrives: a watch's delta carries
	// whatever older deltas waited in its inbox, so the folded answers are
	// the model's.
	for name, w := range h.watches {
		wt, local := tenant.SplitName(name)
		if wt != tn {
			continue
		}
		got, ok := own[local]
		if !ok {
			if len(want[name].Added)+len(want[name].Removed) > 0 {
				h.fatalf("%s: no delta, oracle +%v -%v", name, want[name].Added, want[name].Removed)
			}
			continue
		}
		if got.Resync {
			h.reread(w)
			continue
		}
		if !w.stale && (!sameIDs(got.Added, want[name].Added) || !sameIDs(got.Removed, want[name].Removed)) {
			h.fatalf("%s: delta +%v -%v, oracle +%v -%v", name, got.Added, got.Removed, want[name].Added, want[name].Removed)
		}
		w.fold(got)
		w.stale = false
		if acc := sortedNodes(w.acc); !reflect.DeepEqual(emptyNotNil(acc), emptyNotNil(w.m.Answers())) {
			h.fatalf("%s: delta +%v -%v folds to %v, oracle %v", name, got.Added, got.Removed, acc, w.m.Answers())
		}
	}
}

func (h *harness) drain(tn string) {
	ds, err := h.mgr.Drain(tn)
	h.seen[tn] = h.now
	h.logf("drain %s: %d deltas", tn, len(ds))
	if err != nil {
		h.fatalf("drain %s: %v", tn, err)
	}
	for _, d := range ds {
		w := h.watches[tenant.GlobalName(tn, d.Watch)]
		if w == nil {
			h.fatalf("drain %s: a delta for %q, which it does not watch", tn, d.Watch)
		}
		if d.Resync {
			h.reread(w)
		} else {
			w.fold(d)
		}
	}
	for name, w := range h.watches {
		if wt, _ := tenant.SplitName(name); wt == tn {
			w.stale = false
		}
	}
}

// evicted forgets tn's session and its watches. An eviction that
// fail-stops the coordinator leaves the watches it did not reach, which
// the restart restores (ii).
func (h *harness) evicted(tn string) {
	h.live[tn] = false
	registered := make(map[string]bool)
	if h.stopped() {
		for _, name := range h.c.Watches() {
			registered[name] = true
		}
	}
	for name := range h.watches {
		if wt, _ := tenant.SplitName(name); wt == tn && !registered[name] {
			delete(h.watches, name)
		}
	}
}

// reread replaces a watch's accumulated answers with a routed match.
func (h *harness) reread(w *modelWatch) {
	for try := 0; try < 10; try++ {
		res, err := h.c.Match(w.q)
		if err == nil {
			w.reset(res.Matches)
			return
		}
		h.refusals++
	}
	h.fatalf("no read served in 10 tries")
}

// restart stops the coordinator and its journal and recovers both from
// the directory: the durable state must be the model's, Recover must
// write nothing, and every watch is re-read.
func (h *harness) restart() {
	h.restarts++
	h.setRate(faultRate)
	h.c.Close()
	if err := h.j.Close(); err != nil {
		h.fatalf("journal close: %v", err)
	}
	j, err := OpenJournal(h.dir, JournalOptions{Logf: quiet})
	if err != nil {
		h.fatalf("reopen journal: %v", err)
	}
	h.j = j
	want := make(map[string]string)
	for name, w := range h.watches {
		want[name] = w.q.String()
	}
	if !j.HasState() || !reflect.DeepEqual(j.Watches(), want) {
		h.fatalf("journal holds watches %v, model %v", j.Watches(), want)
	}
	if err := sameGraph(j.Graph(), h.model.Graph()); err != nil {
		h.fatalf("journal: %v", err)
	}
	before, _ := j.JournalBytes()
	workers := []int{1, 2, 4}[h.r.Intn(3)]
	h.logf("restart")
	h.c = h.build(workers, func(ts []cluster.Transport) (*cluster.Coordinator, error) {
		return cluster.Recover(j.Graph(), j.Watches(), ts, h.config())
	})
	if after, _ := j.JournalBytes(); after != before {
		h.fatalf("recovery wrote to the journal: %d bytes, then %d", before, after)
	}
	h.attachManager(j.Watches())
	for _, name := range h.sortedWatches() {
		h.reread(h.watches[name])
	}
}

// check compares the cluster with the model after a step.
func (h *harness) check() {
	g := h.c.Graph()
	if err := g.CheckIndex(); err != nil {
		h.fatalf("coordinator graph: %v", err)
	}
	if err := sameGraph(g, h.model.Graph()); err != nil {
		h.fatalf("coordinator: %v", err)
	}
	if got, want := h.c.Watches(), h.sortedWatches(); !slices.Equal(got, want) {
		h.fatalf("coordinator watches %q, model %q", got, want)
	}
	for _, name := range h.sortedWatches() {
		w := h.watches[name]
		if got := sortedNodes(w.acc); !w.stale && !reflect.DeepEqual(emptyNotNil(got), emptyNotNil(w.m.Answers())) {
			h.fatalf("%s: accumulated answers %v, oracle %v", name, got, w.m.Answers())
		}
	}
}

// finish turns the faults off and checks that the cluster heals: the
// monitor replaces dead primaries, Repair restores every fragment's
// replicas, every copy probes healthy, and matches, the session list and
// every drained watch agree with the model.
func (h *harness) finish() {
	h.setRate(0)
	for i := 0; i < 2; i++ {
		if err := h.mon.Check(); err != nil {
			h.fatalf("monitor check: %v", err)
		}
	}
	if _, err := h.c.Repair(); err != nil {
		h.fatalf("repair: %v", err)
	}
	probes, err := h.c.Probe()
	if err != nil {
		h.fatalf("probe: %v", err)
	}
	for _, pr := range probes {
		if pr.Primary != nil || len(pr.Replicas) != h.replicas-1 || slices.ContainsFunc(pr.Replicas, func(err error) bool { return err != nil }) {
			h.fatalf("fragment %d after repair: primary %v, replicas %v", pr.Fragment, pr.Primary, pr.Replicas)
		}
	}
	for _, dsl := range chaosPatterns {
		q := mustParse(h.t, dsl)
		res, err := h.c.Match(q)
		if want := oracleAnswers(h.t, h.model.Graph(), q); err != nil || !reflect.DeepEqual(emptyNotNil(res.Matches), emptyNotNil(want)) {
			h.fatalf("final match: %v, single process %v", err, want)
		}
	}
	var sessions []string
	for _, info := range h.mgr.List() {
		sessions = append(sessions, fmt.Sprintf("%s:%d", info.Name, info.Watches))
	}
	var want []string
	for _, tn := range modelTenants {
		if h.live[tn] {
			n := 0
			for name := range h.watches {
				if wt, _ := tenant.SplitName(name); wt == tn {
					n++
				}
			}
			want = append(want, fmt.Sprintf("%s:%d", tn, n))
			h.drain(tn)
		}
	}
	if !slices.Equal(sessions, want) {
		h.fatalf("sessions %v, model %v", sessions, want)
	}
	h.check()
}

// randomBatch builds a seeded batch of 1..5 mutations over a graph with n
// nodes, occasionally growing n: edge churn on the two labels the patterns
// observe, node removals, and node creations wired into the existing graph
// (the coordinator assigns a created node to exactly one worker, whose
// deltas must then report it).
func randomBatch(r *rand.Rand, n *int64) []server.UpdateSpec {
	labels := []string{"follow", "follow", "follow", "bad_rating"}
	var specs []server.UpdateSpec
	for i, k := 0, 1+r.Intn(5); i < k; i++ {
		from, to := r.Int63n(*n), r.Int63n(*n)
		if from == to {
			to = (to + 1) % *n
		}
		label := labels[r.Intn(len(labels))]
		switch r.Intn(6) {
		case 0, 1, 2:
			specs = append(specs, server.UpdateSpec{Op: "addEdge", From: from, To: to, Label: label})
		case 3:
			specs = append(specs, server.UpdateSpec{Op: "removeEdge", From: from, To: to, Label: label})
		case 4:
			specs = append(specs, server.UpdateSpec{Op: "removeNode", From: from})
		case 5:
			specs = append(specs,
				server.UpdateSpec{Op: "addNode", Label: "person"},
				server.UpdateSpec{Op: "addEdge", From: *n, To: to, Label: "follow"},
				server.UpdateSpec{Op: "addEdge", From: from, To: *n, Label: "follow"})
			*n++
		}
	}
	return specs
}

func sameIDs(got []int64, want []graph.NodeID) bool {
	return slices.EqualFunc(got, want, func(a int64, b graph.NodeID) bool { return a == int64(b) })
}

func sortedNodes(set map[graph.NodeID]bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// sameGraph compares graph a with the model's graph b by node labels and
// labeled edges, by name: graphs that went through different interners (a
// recovered store's and the original's) compare exactly. Edges are a set,
// so equal counts and every edge of a in b make the two equal.
func sameGraph(a, b *graph.Graph) error {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("%d nodes / %d edges, the model %d / %d", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for v := range graph.NodeID(a.NumNodes()) {
		if a.NodeLabelName(v) != b.NodeLabelName(v) {
			return fmt.Errorf("node %d is a %s, the model's a %s", v, a.NodeLabelName(v), b.NodeLabelName(v))
		}
		for _, e := range a.Out(v) {
			if !b.HasEdge(v, e.To, b.LookupLabel(a.LabelName(e.Label))) {
				return fmt.Errorf("edge %d→%d %s is not the model's", v, e.To, a.LabelName(e.Label))
			}
		}
	}
	return nil
}
