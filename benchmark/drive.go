package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/server"
)

// readSample is one match answer kept for the oracle. lo and hi bound
// the graph version it may have been served at: batches acknowledged
// before it was sent, batches sent by the time it returned.
type readSample struct {
	pat    int
	lo, hi uint64
	got    []int64
}

// phase is what one client goroutine measured in one interval.
type phase struct {
	lat       []time.Duration // per-op latency
	late      []time.Duration // how far behind its intent the generator sent each op
	attempted int
	failed    int
	errs      []string
	samples   []readSample
	first     time.Time       // first send
	last      time.Time       // last completion
	done      []time.Time     // completion of each op in lat
	rounds    []time.Duration // mean latency of each complete pass over the client's schedule
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 3 {
		p.errs = append(p.errs, err.Error())
	}
}

// merge adds what o measured; a nil o (a workload without a writer) adds
// nothing.
func (p *phase) merge(o *phase) {
	if o == nil {
		return
	}
	p.lat = append(p.lat, o.lat...)
	p.done = append(p.done, o.done...)
	p.rounds = append(p.rounds, o.rounds...)
	p.late = append(p.late, o.late...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.errs = append(p.errs, o.errs...)
	p.samples = append(p.samples, o.samples...)
	if p.first.IsZero() || (!o.first.IsZero() && o.first.Before(p.first)) {
		p.first = o.first
	}
	if o.last.After(p.last) {
		p.last = o.last
	}
}

// opsPerSec is the interquartile mean of the ops completed in each whole
// second of the window: the seconds are sorted and the middle half
// averaged. A plain mean over the window would carry every burst of
// interference from a shared machine; the middle seconds do not.
func (p *phase) opsPerSec(window time.Duration) float64 {
	secs := int(window / time.Second)
	if secs < 4 { // too short to have a middle half: the plain mean
		if d := p.last.Sub(p.first).Seconds(); d > 0 {
			return float64(len(p.lat)) / d
		}
		return 0
	}
	counts := make([]int, secs)
	for _, t := range p.done {
		if i := int(t.Sub(p.first) / time.Second); i >= 0 && i < secs {
			counts[i]++
		}
	}
	sort.Ints(counts)
	mid := counts[secs/4 : secs-secs/4]
	sum := 0
	for _, c := range mid {
		sum += c
	}
	return float64(sum) / float64(len(mid))
}

// busyRate is ops over the time spent inside them: a closed loop's
// throughput with the gaps between stretches of a run left out.
func (p *phase) busyRate() float64 {
	var busy time.Duration
	for _, d := range p.lat {
		busy += d
	}
	return float64(len(p.lat)) / busy.Seconds()
}

// closeRounds cuts the client's ops into passes over its schedule of n
// ops (one round of the pattern mix, one period of the batch schedule)
// and keeps each complete pass's mean latency.
func (p *phase) closeRounds(n int) {
	for i := 0; i+n <= len(p.lat); i += n {
		var sum time.Duration
		for _, d := range p.lat[i : i+n] {
			sum += d
		}
		p.rounds = append(p.rounds, sum/time.Duration(n))
	}
}

// opLatency is the typical latency of an op in seconds: the median over
// the rounds of a round's mean. The ops of a round differ by design (the
// universal pattern costs eight times the numeric one), so the median
// over single ops is whichever pattern happens to sit in the middle and
// jumps between two of them from run to run; a round holds every kind of
// op once, and the median over rounds drops the rounds a burst of
// interference hit. A window too short for one round gives the plain mean.
func (p *phase) opLatency() float64 {
	if len(p.rounds) > 0 {
		return median(p.rounds)
	}
	var sum time.Duration
	for _, d := range p.lat {
		sum += d
	}
	return sum.Seconds() / float64(max(len(p.lat), 1))
}

// quantile is the nearest-rank q-quantile of ds in seconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i].Seconds()
}

func median(ds []time.Duration) float64 { return quantile(ds, 0.5) }

func toInt64(vs []graph.NodeID) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(v)
	}
	return out
}

// matchFunc runs mix pattern pat once and returns the answer ids and how
// long the call itself took.
type matchFunc func(pat int) ([]int64, time.Duration, error)

func singleMatch(in *inputs) matchFunc {
	return func(pat int) ([]int64, time.Duration, error) {
		t0 := time.Now()
		res, err := match.QMatch(in.g, in.mix[pat], nil)
		d := time.Since(t0)
		if err != nil {
			return nil, d, err
		}
		return toInt64(res.Matches), d, nil
	}
}

// clientMatch sends the pattern as DSL text over the client's own
// connection, as any user of the service would. rec, when tracing, gets
// the request and response of the client's own hop.
func clientMatch(c *client.Client, rec *recorder) matchFunc {
	return func(pat int) ([]int64, time.Duration, error) {
		req := &server.Request{Cmd: "match", Pattern: mixDSL[pat].dsl}
		t0 := time.Now()
		resp, err := c.Do(req)
		t1 := time.Now()
		rec.hop(classMatch, req, resp, t0, t1)
		if err != nil {
			return nil, t1.Sub(t0), err
		}
		return resp.Matches, t1.Sub(t0), nil
	}
}

// readLoop is a closed-loop reader: the next match is sent when the
// previous answer arrived. Every sampleEvery-th answer is kept for the
// oracle (1 keeps all). r may be nil when nothing writes.
func readLoop(until time.Time, do matchFunc, r *rig, slot, sampleEvery int) *phase {
	p := &phase{}
	prev := time.Now()
	for n := 0; ; n++ {
		now := time.Now()
		if !now.Before(until) {
			break
		}
		pat := mixSchedule[slot%len(mixSchedule)]
		slot++
		var lo uint64
		if r != nil {
			lo = r.acked.Load()
		}
		if p.first.IsZero() {
			p.first = now
		}
		p.late = append(p.late, now.Sub(prev))
		p.attempted++
		got, d, err := do(pat)
		prev = time.Now()
		if err != nil {
			p.fail(fmt.Errorf("match %s: %w", mixDSL[pat].name, err))
			continue
		}
		p.last = prev
		p.lat, p.done = append(p.lat, d), append(p.done, prev)
		if n%sampleEvery == 0 {
			s := readSample{pat: pat, lo: lo, hi: lo, got: got}
			if r != nil {
				s.hi = r.sent.Load()
			}
			p.samples = append(p.samples, s)
		}
	}
	p.closeRounds(len(mixSchedule))
	return p
}

// updateFunc applies one batch and returns the writer's own deltas.
type updateFunc func(specs []server.UpdateSpec) ([]server.WatchDelta, error)

func clientUpdate(c *client.Client, rec *recorder) updateFunc {
	return func(specs []server.UpdateSpec) ([]server.WatchDelta, error) {
		req := &server.Request{Cmd: "update", Updates: specs}
		t0 := time.Now()
		resp, err := c.Do(req)
		rec.hop(classUpdate, req, resp, t0, time.Now())
		if err != nil {
			return nil, err
		}
		return resp.Deltas, nil
	}
}

// writeLoop sends the batch schedule from where the rig's writer left
// off. rate 0 is a closed loop; rate > 0 is an open loop at that many
// batches per second of the reference box (calib.go), each batch timed
// from when it was due, so a stall is charged to every batch it delays.
// The gap to the next due time stretches with the machine's slowdown of
// the moment: at a fixed wall-clock rate a slow minute would turn 20
// batches/s from a quarter of the P into two fifths, and the reader beside
// them would slow down by far more than the machine did.
func writeLoop(until time.Time, do updateFunc, r *rig, rate int) *phase {
	p := &phase{}
	prev := time.Now()
	due := prev
	for {
		if rate == 0 {
			due = prev
		} else {
			if !due.Before(until) {
				break
			}
			time.Sleep(time.Until(due))
		}
		if !time.Now().Before(until) {
			break
		}
		specs := r.in.batchFor(int(r.sent.Add(1)) - 1)
		t0 := time.Now()
		if p.first.IsZero() {
			p.first = t0
		}
		p.late = append(p.late, t0.Sub(due))
		if rate > 0 {
			t0 = due
			due = due.Add(time.Duration(float64(time.Second) / float64(rate) * r.speed.recent()))
		}
		p.attempted++
		deltas, err := do(specs)
		prev = time.Now()
		if err == nil {
			err = r.fold(deltas)
		}
		// The replay oracle applies every batch in order, so a failed one
		// would also show as wrong answers; counting it here names it.
		r.acked.Add(1)
		if err != nil {
			p.fail(fmt.Errorf("update: %w", err))
			continue
		}
		p.last = prev
		p.lat, p.done = append(p.lat, prev.Sub(t0)), append(p.done, prev)
	}
	p.closeRounds(batchPeriod)
	return p
}

// drive runs the workload's clients until the deadline and returns the
// primary op's measurements plus, on mixed-tenants, the writer's.
// conns is how many connections take part. tr, when not nil, records
// every op as a trace (traced runs; it is nil in the measured ones).
func drive(w workload, in *inputs, r *rig, until time.Time, conns, sampleEvery int, tr *tracer) (primary, writer *phase) {
	switch w.kind {
	case kindSingle:
		return readLoop(until, tr.match("single.match", singleMatch(in)), nil, in.startSlot(0), sampleEvery), nil
	case kindMatch:
		parts := make([]*phase, conns)
		var wg sync.WaitGroup
		for i := 0; i < conns; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Clients start at different schedule slots so they do
				// not march through the mix in step.
				parts[i] = readLoop(until, tr.match("client.match", clientMatch(r.conns[i], tr.recorder())), r, in.startSlot(i), sampleEvery)
			}(i)
		}
		wg.Wait()
		primary = &phase{}
		for _, p := range parts {
			primary.merge(p)
		}
		return primary, nil
	case kindUpdate:
		return writeLoop(until, tr.update("client.update", clientUpdate(r.conns[0], tr.recorder())), r, 0), nil
	default: // kindMixed
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			writer = writeLoop(until, tr.update("client.update", clientUpdate(r.conns[0], tr.recorder())), r, openLoopRate)
		}()
		primary = readLoop(until, tr.match("client.match", clientMatch(r.conns[len(r.conns)-1], tr.recorder())), r, in.startSlot(0), sampleEvery)
		wg.Wait()
		return primary, writer
	}
}
