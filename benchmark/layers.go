package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/simulation"
	"repro/internal/tenant"
)

// opRecord is one finished traced op: the latency its caller saw and the
// seam calls it caused.
type opRecord struct {
	lat   time.Duration
	calls []call
}

// tracer makes each call of a client's op function one op in the
// recorder and keeps the finished ops. A nil tracer leaves the function
// as it is.
type tracer struct {
	rec *recorder
	mu  sync.Mutex
	ops []opRecord
}

func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

func (t *tracer) keep(op *opTrace, lat time.Duration, err error) {
	if op != nil && err == nil {
		t.mu.Lock()
		t.ops = append(t.ops, opRecord{lat: lat, calls: op.calls})
		t.mu.Unlock()
	}
}

func (t *tracer) match(name string, do matchFunc) matchFunc {
	if t == nil {
		return do
	}
	return func(pat int) ([]int64, time.Duration, error) {
		op := t.rec.begin(classMatch, name)
		got, d, err := do(pat)
		t.rec.end(classMatch, op)
		t.keep(op, d, err)
		return got, d, err
	}
}

func (t *tracer) update(name string, do updateFunc) updateFunc {
	if t == nil {
		return do
	}
	return func(specs []server.UpdateSpec) ([]server.WatchDelta, error) {
		op := t.rec.begin(classUpdate, name)
		t0 := time.Now()
		deltas, err := do(specs)
		d := time.Since(t0)
		t.rec.end(classUpdate, op)
		t.keep(op, d, err)
		return deltas, err
	}
}

// directMatch and directUpdate call the front end's own coordinator,
// skipping TCP, dispatch and the tenant layer: the difference to the
// same ops sent by a client is what those three cost.
func directMatch(c *cluster.Coordinator, in *inputs) matchFunc {
	return func(pat int) ([]int64, time.Duration, error) {
		t0 := time.Now()
		res, err := c.MatchWith(in.mix[pat], nil)
		d := time.Since(t0)
		if err != nil {
			return nil, d, err
		}
		return toInt64(res.Matches), d, nil
	}
}

func directUpdate(c *cluster.Coordinator, sink *[]*cluster.UpdateResult) updateFunc {
	return func(specs []server.UpdateSpec) ([]server.WatchDelta, error) {
		res, err := c.Update(specs)
		if err != nil {
			return nil, err
		}
		*sink = append(*sink, res)
		// The coordinator names watches globally; every watch here is
		// the writer's, so stripping the tenant gives the client's view.
		out := make([]server.WatchDelta, len(res.Deltas))
		for i, d := range res.Deltas {
			_, d.Watch = tenant.SplitName(d.Watch)
			out[i] = d
		}
		return out, nil
	}
}

func isTransport(c *call) bool { return c.name == "transport" }
func isWire(c *call) bool      { return c.name == "transport" || c.name == "mirror" }
func isJournal(c *call) bool   { return c.name == "journal" }
func isSeam(c *call) bool      { return c.name != "client" }

// series collects one duration per op and reports medians in seconds.
type series map[string][]time.Duration

func (s series) add(name string, d time.Duration) { s[name] = append(s[name], d) }
func (s series) med(name string) float64          { return median(s[name]) }

// seamStats reduces traced ops to per-op durations at each seam.
func seamStats(ops []opRecord) (s series, requests, mirrors float64) {
	s = series{}
	for _, op := range ops {
		var rttMax, computeMax, computeSum, wire time.Duration
		for i := range op.calls {
			c := &op.calls[i]
			switch {
			case isTransport(c):
				requests++
				rtt := c.end.Sub(c.start)
				if rtt > rttMax {
					// The fan-out waits for the slowest worker, so its
					// wire cost is the one on the blocking path.
					rttMax, wire = rtt, rtt-c.compute
				}
				computeSum += c.compute
				if c.compute > computeMax {
					computeMax = c.compute
				}
			case c.name == "mirror":
				mirrors++
			}
		}
		wireAll := union(op.calls, isWire)
		s.add("lat", op.lat)
		s.add("rtt_max", rttMax)
		s.add("compute_max", computeMax)
		s.add("compute_sum", computeSum)
		s.add("wire", wire)
		fanout := union(op.calls, isTransport)
		s.add("fanout", fanout)
		s.add("journal", union(op.calls, isJournal))
		s.add("mirror", wireAll-fanout)
		s.add("self", op.lat-union(op.calls, isSeam))
	}
	n := float64(max(len(ops), 1))
	return s, requests / n, mirrors / n
}

// jsonCost re-encodes and re-decodes every request and response of up
// to 64 ops with encoding/json, the codec both ends of every hop use,
// and returns the median time and mean bytes per op.
func jsonCost(ops []opRecord) (sec, reqBytes, respBytes float64, err error) {
	if len(ops) > 64 {
		ops = ops[:64]
	}
	var times []time.Duration
	for _, op := range ops {
		t0 := time.Now()
		for _, c := range op.calls {
			if c.req == nil || c.resp == nil {
				continue
			}
			rb, err := json.Marshal(c.req)
			if err != nil {
				return 0, 0, 0, err
			}
			if err := json.Unmarshal(rb, new(server.Request)); err != nil {
				return 0, 0, 0, err
			}
			pb, err := json.Marshal(c.resp)
			if err != nil {
				return 0, 0, 0, err
			}
			if err := json.Unmarshal(pb, new(server.Response)); err != nil {
				return 0, 0, 0, err
			}
			reqBytes += float64(len(rb))
			respBytes += float64(len(pb))
		}
		times = append(times, time.Since(t0))
	}
	n := float64(max(len(ops), 1))
	return median(times), reqBytes / n, respBytes / n, nil
}

type noopRegistrar struct{}

func (noopRegistrar) Watch(string, *core.Pattern) ([]graph.NodeID, error) { return nil, nil }
func (noopRegistrar) Unwatch(string) error                                { return nil }

// timeEach runs fn n times and returns each run's duration.
func timeEach(n int, fn func(i int) error) ([]time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		ds[i] = time.Since(t0)
	}
	return ds, nil
}

// replay drives each layer's public functions with the workload's own
// inputs in a single process, after the window: what the layer costs
// with nothing around it.
func replay(cfg runConfig, in *inputs, updates []*cluster.UpdateResult, put func(name string, v float64, unit string)) error {
	// core: one parse per pattern text. A cluster match parses the text
	// on the front end and again on every worker.
	ds, err := timeEach(50*len(mixSchedule), func(i int) error {
		_, err := core.Parse(mixDSL[mixSchedule[i%len(mixSchedule)]].dsl)
		return err
	})
	if err != nil {
		return err
	}
	put("core.parse_s", median(ds)*float64(clusterWorkers+1), "s")

	// partition: the fragmentation the coordinator computes at load.
	var p *partition.Partition
	ds, err = timeEach(1, func(int) error {
		p, err = partition.DPar(in.g, partition.Config{Workers: clusterWorkers, D: clusterD})
		return err
	})
	if err != nil {
		return err
	}
	put("partition.dpar_s", median(ds), "s")

	// simulation: the candidate filter on the whole graph, and on the
	// largest fragment as each worker runs it.
	largest := p.Fragments[0]
	for _, f := range p.Fragments {
		if len(f.Nodes) > len(largest.Nodes) {
			largest = f
		}
	}
	frag, _ := in.g.Induced(largest.Nodes)
	for name, g := range map[string]*graph.Graph{"simulation.candidates_s": in.g, "simulation.candidates_frag_s": frag} {
		ds, _ = timeEach(3*len(mixSchedule), func(i int) error {
			pi, _ := in.mix[mixSchedule[i%len(mixSchedule)]].Pi()
			simulation.Candidates(g, pi, false)
			return nil
		})
		put(name, median(ds), "s")
	}

	// match: the engine's work counts over one round of the schedule;
	// they repeat exactly for a given dataset. (Its time is taken in the
	// match probe, next to the cluster's.)
	var ext, ver float64
	for _, pat := range mixSchedule {
		res, err := match.QMatch(in.g, in.mix[pat], nil)
		if err != nil {
			return err
		}
		ext += float64(res.Metrics.Extensions)
		ver += float64(res.Metrics.Verifications)
	}
	put("match.extensions_per_op", ext/float64(len(mixSchedule)), "count")
	put("match.verifications_per_op", ver/float64(len(mixSchedule)), "count")

	// graph + dynamic: the write path in one process. One versioned
	// graph, one matcher per standing watch, the schedule's first batches.
	vg := graph.NewVersioned(in.g.Clone())
	var ms []*dynamic.Matcher
	hops := 0
	for i := 0; i < cfg.w.watches; i++ {
		m, err := dynamic.NewMatcher(vg.Graph(), in.watch[i%len(in.watch)])
		if err != nil {
			return err
		}
		ms = append(ms, m)
		hops = max(hops, m.Hops())
	}
	const batches = 200
	var apply, affected, verify []time.Duration
	var deltaIDs float64
	for i := 0; i < batches; i++ {
		ups, err := server.ToUpdates(in.batchFor(i))
		if err != nil {
			return err
		}
		t0 := time.Now()
		old, touched, err := dynamic.ApplyVersioned(vg, ups)
		if err != nil {
			return err
		}
		t1 := time.Now()
		dynamic.AffectedWithin(old, vg.Graph(), touched, hops)
		t2 := time.Now()
		for _, m := range ms {
			d, err := m.ApplyShared(old, vg.Graph(), touched)
			if err != nil {
				return err
			}
			deltaIDs += float64(len(d.Added) + len(d.Removed))
		}
		apply, affected, verify = append(apply, t1.Sub(t0)), append(affected, t2.Sub(t1)), append(verify, time.Since(t2))
	}
	put("graph.apply_s", median(apply), "s")
	put("dynamic.affected_s", median(affected), "s")
	put("dynamic.verify_s", median(verify), "s")
	put("dynamic.verify_per_watch_s", median(verify)/float64(len(ms)), "s")
	put("dynamic.delta_ids_per_batch", deltaIDs/batches, "count")

	// tenant: admission and fence for a read, delta projection and
	// accounting for a write, on a manager holding the same watch table.
	tm := tenant.NewManager(tenant.Config{MaxWatches: -1, IdleTimeout: -1}, noopRegistrar{})
	wr, err := tm.Attach(writerSession)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.w.watches; i++ {
		if _, err := tm.Watch(wr, watchName(i), in.watch[i%len(in.watch)]); err != nil {
			return err
		}
	}
	rd, err := tm.Attach("")
	if err != nil {
		return err
	}
	ds, err = timeEach(2000, func(int) error {
		t0 := time.Now()
		if err := tm.Admit(rd, "match"); err != nil {
			return err
		}
		tm.NoteRead(rd)
		tm.Observe(rd, "match", t0)
		return nil
	})
	if err != nil {
		return err
	}
	put("tenant.admit_s", median(ds), "s")
	ds, _ = timeEach(len(updates), func(i int) error {
		tm.RecordDeltas(wr, updates[i].Deltas)
		tm.NoteWrite(wr, updates[i].Version)
		tm.ChargeAffected(wr, updates[i].AffectedSize)
		return nil
	})
	put("tenant.record_deltas_s", median(ds), "s")
	return nil
}

// tracedConns is how many clients drive the workload in a traced run:
// one, so that every seam call belongs to one op, except that
// mixed-tenants keeps its writer beside its reader (their fan-outs are of
// different classes and cannot be confused).
func tracedConns(w workload) int {
	if w.kind == kindMixed {
		return 2
	}
	return 1
}

// runTraced produces the per-layer metrics. The workload first runs as
// in the measured run, alternately with the seam wrappers switched off
// and on (the ratio is the tracing overhead); then single ops of both
// classes are sent once through a client and once straight into the
// coordinator, one at a time so that every seam call belongs to exactly
// one op; last, replay times each layer alone.
func runTraced(cfg runConfig) (*result, error) {
	speed := startSpeedometer()
	defer speed.stop()
	began := time.Now()
	rec := newRecorder()
	in, r, _, err := setUp(cfg, 2, rec, speed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	coord := r.coordinator()
	if coord == nil {
		return nil, fmt.Errorf("front end built no coordinator")
	}
	w, conns := cfg.w, tracedConns(cfg.w)
	seg := cfg.window / 3 // own workload, match probe, update probe
	run := func(d time.Duration, tr *tracer) (*phase, *phase) {
		return drive(w, in, r, time.Now().Add(d), conns, sampleEvery, tr)
	}
	warm, warmW := drive(w, in, r, time.Now().Add(cfg.warmup), conns, 1, nil)
	// Plain and traced stretches alternate in short turns, so that a
	// slow second on a shared machine lands on both sides.
	plain, plainW, traced, tracedW := &phase{}, &phase{}, &phase{}, &phase{}
	const turns = 8
	for i := 0; i < turns; i++ {
		rec.on.Store(false)
		p, pw := run(seg/turns, nil)
		rec.on.Store(true)
		t, tw := run(seg/turns, &tracer{rec: rec})
		plain.merge(p)
		plainW.merge(pw)
		traced.merge(t)
		tracedW.merge(tw)
	}

	// Probes: conns[1] reads as its own tenant, conns[0] is the writer.
	mc, md, uc, ud := &tracer{rec: rec}, &tracer{rec: rec}, &tracer{rec: rec}, &tracer{rec: rec}
	var updates []*cluster.UpdateResult
	// Client and direct ops take turns op by op, for the same reason, and
	// every client match is followed by the same pattern on the engine
	// alone: the pair is cluster.overhead_x.
	single := singleMatch(in)
	var singleLat []time.Duration
	clientMatches := mc.match("client.match", clientMatch(r.conns[1], rec))
	pm := readLoop(time.Now().Add(seg), alternate(
		func(pat int) ([]int64, time.Duration, error) {
			got, d, err := clientMatches(pat)
			if _, ds, serr := single(pat); serr == nil {
				singleLat = append(singleLat, ds)
			}
			return got, d, err
		},
		md.match("coordinator.match", directMatch(coord, in))), r, 0, sampleEvery)
	viaClient := uc.update("client.update", clientUpdate(r.conns[0], rec))
	viaCoord := ud.update("coordinator.update", directUpdate(coord, &updates))
	var journalBytes int64
	turn := 0
	pu := writeLoop(time.Now().Add(seg), func(specs []server.UpdateSpec) ([]server.WatchDelta, error) {
		if turn++; turn%2 == 1 {
			return viaClient(specs)
		}
		before, _ := r.journal.JournalBytes()
		deltas, err := viaCoord(specs)
		if after, _ := r.journal.JournalBytes(); after > before { // not across a compaction
			journalBytes += after - before
		}
		return deltas, err
	}, r, 0)
	rec.on.Store(false)

	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	// The workload's own op class decides which probe the seam metrics
	// describe; the write-only seams always come from the update probe.
	client, direct := mc, md
	if w.kind == kindUpdate {
		client, direct = uc, ud
	}
	cs, _, _ := seamStats(client.ops)
	dst, _, _ := seamStats(direct.ops)
	both, requests, _ := seamStats(append(append([]opRecord(nil), client.ops...), direct.ops...))
	us, _, mirrors := seamStats(append(append([]opRecord(nil), uc.ops...), ud.ops...))
	put("server.worker_compute_sum_s", both.med("compute_sum"), "s")
	put("server.worker_compute_max_s", both.med("compute_max"), "s")
	put("cluster.fanout_s", both.med("fanout"), "s")
	put("cluster.worker_rtt_max_s", both.med("rtt_max"), "s")
	put("cluster.wire_overhead_s", both.med("wire"), "s")
	put("cluster.fanout_requests_per_op", requests, "count")
	put("cluster.coordinator_self_s", dst.med("self"), "s")
	frontend := cs.med("lat") - dst.med("lat")
	put("cluster.frontend_s", frontend, "s")
	put("ha.journal_append_s", us.med("journal"), "s")
	put("ha.mirror_s", us.med("mirror"), "s")
	put("ha.mirror_requests_per_batch", mirrors, "count")
	put("ha.journal_bytes_per_batch", float64(journalBytes)/float64(max(len(ud.ops), 1)), "bytes")
	blocking := frontend + dst.med("self") + dst.med("fanout") + dst.med("mirror") + dst.med("journal")
	put("trace.unattributed_s", cs.med("lat")-blocking, "s")
	opName := "match"
	if w.kind == kindUpdate {
		opName = "update"
	}
	res.notes = append(res.notes, fmt.Sprintf("blocking path of a client %s: traced median %.6f s = frontend %.6f + coordinator self %.6f + fan-out %.6f (slowest worker: rtt %.6f = compute %.6f + wire %.6f) + mirror %.6f + journal %.6f + unattributed %.6f",
		opName, cs.med("lat"), frontend, dst.med("self"), dst.med("fanout"), dst.med("rtt_max"), dst.med("compute_max"), dst.med("wire"), dst.med("mirror"), dst.med("journal"), cs.med("lat")-blocking))

	sec, reqB, respB, err := jsonCost(client.ops)
	if err != nil {
		return nil, err
	}
	put("server.json_s", sec, "s")
	put("server.req_bytes_per_op", reqB, "bytes")
	put("server.resp_bytes_per_op", respB, "bytes")

	var contacted, affected float64
	for _, u := range updates {
		contacted += float64(len(u.Contacted))
		affected += float64(u.AffectedSize)
	}
	n := float64(max(len(updates), 1))
	put("cluster.contacted_per_batch", contacted/n, "count")
	put("cluster.affected_per_batch", affected/n, "count")
	put("cluster.affected_ratio", affected/n/float64(in.g.NumNodes()), "ratio")

	sizes := coord.FragmentSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	put("partition.replication_x", float64(total)/float64(coord.Graph().NumNodes()), "x")
	put("partition.skew", partition.SkewOf(sizes), "x")

	if err := replay(cfg, in, updates, put); err != nil {
		return nil, err
	}
	put("match.qmatch_s", median(singleLat), "s")
	put("cluster.overhead_x", median(mc.lats())/median(singleLat), "x")

	// Tenant limits are unlimited, so nothing may have been throttled.
	sessions, err := r.conns[0].Sessions()
	if err != nil {
		return nil, err
	}
	var throttled float64
	for _, s := range sessions {
		throttled += float64(s.Throttled)
	}

	// Validity of the run itself.
	gen, write := traced, uc.lats()
	switch w.kind {
	case kindMixed:
		gen, write = tracedW, tracedW.lat
	case kindUpdate:
		write = traced.lat
	}
	// The tail is reported here, from the untraced stretches, because it
	// does not repeat within a tenth between runs (README).
	put("op_p99_ms", quantile(plain.lat, 0.99)*1e3, "ms")
	put("loadgen.late_ms", quantile(gen.late, 0.99)*1e3, "ms")
	put("loadgen.write_p50_ms", median(write)*1e3, "ms")
	put("loadgen.write_p99_ms", quantile(write, 0.99)*1e3, "ms")
	put("trace.overhead_x", plain.busyRate()/traced.busyRate(), "x")
	// Per-layer timings are as measured; this is what the machine's speed
	// was while they were taken (calib.go), to read them against.
	ref, _ := speed.during(began, time.Now())
	put("ref.traversal_ms", ref.Seconds()*1e3, "ms")

	if err := finish(cfg, in, r, res, warm, warmW, plain, plainW, traced, tracedW, pm, pu); err != nil {
		return nil, err
	}
	put("tenant.throttled_ratio", throttled/float64(max(res.Attempted, 1)), "ratio")
	if cfg.spans != "" {
		if err := rec.writeFile(cfg.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// alternate sends successive ops to a and b in turn.
func alternate(a, b matchFunc) matchFunc {
	turn := 0
	return func(pat int) ([]int64, time.Duration, error) {
		if turn++; turn%2 == 1 {
			return a(pat)
		}
		return b(pat)
	}
}

func (t *tracer) lats() []time.Duration {
	ds := make([]time.Duration, len(t.ops))
	for i, op := range t.ops {
		ds[i] = op.lat
	}
	return ds
}
