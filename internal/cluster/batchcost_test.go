package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
)

// watchRig is the update-watch shape in miniature: 2 fragments × 2
// copies, a journal, and the benchmark's four watch patterns under two
// names each, over social persons=persons.
func watchRig(t *testing.T, persons int, journal UpdateJournal, reg *obs.Registry) (c *Coordinator, base int) {
	t.Helper()
	g := gen.Social(gen.DefaultSocial(persons, 42))
	c, err := New(g.Clone(), InProcessN(2, server.Config{}), Config{D: 2, Replicas: 2, Pool: newTestPool(4),
		Journal: journal, Metrics: reg, Logf: quietLogf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	dsl := []string{
		"qgp\nn xo person *\nn z person\ne xo z follow >=3\n",
		"qgp\nn xo person *\nn z person\ne xo z follow =0\n",
		"qgp\nn xo person *\nn z person\ne xo z follow <=5\n",
		"qgp\nn xo person *\nn z person\ne xo z follow >=10\n",
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Watch(fmt.Sprintf("w%d", i), mustParse(t, dsl[i%len(dsl)])); err != nil {
			t.Fatal(err)
		}
	}
	return c, g.NumNodes()
}

// slowJournal is a journal whose append takes at least d, so the span
// around it has a duration to show.
type slowJournal struct {
	recordingJournal
	d time.Duration
}

func (j *slowJournal) AppendBatch(specs []server.UpdateSpec) error {
	time.Sleep(j.d)
	return j.recordingJournal.AppendBatch(specs)
}

// TestUpdateSpans: a traced update records every span it did before the
// untraced path stopped reading the clock for spans — graph.apply,
// ha.journal_append, ball and merge once, plan, rtt and ha.mirror once per
// contacted worker — and a worker's record under its rtt still nests
// dynamic.affected and dynamic.verify per watch group. Each span starts
// inside its record and ends inside it: a span stamped from a clock read
// that did not happen would start at the zero time, long before its
// record. The spans around a round trip or a journal append take time and
// must show it; a CPU step may take less than the microsecond a span
// resolves, so of those only the placement is checked.
func TestUpdateSpans(t *testing.T) {
	c, base := watchRig(t, 400, &slowJournal{d: 200 * time.Microsecond}, nil)
	for i := 0; i < 16; i++ { // every batch a steady-state one after this
		if _, err := c.Update(specsOf(fixture.WatchBatch(400, base, i))); err != nil {
			t.Fatal(err)
		}
	}
	var res *UpdateResult
	rec, err := traced(func(tr *obs.Trace) (err error) {
		res, err = c.update(specsOf(fixture.WatchBatch(400, base, 16)), tr) // adds a node: the ball is walked
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Contacted) == 0 {
		t.Fatal("the batch contacted no worker")
	}
	within := func(who string, r *obs.TraceRecord, sp obs.SpanRecord) {
		t.Helper()
		if sp.OffsetMS < 0 || sp.DurMS < 0 || sp.OffsetMS+sp.DurMS > r.DurMS+0.001 {
			t.Errorf("%s span %s@%.3f+%.3f lies outside its record's %.3f ms", who, sp.Name, sp.OffsetMS, sp.DurMS, r.DurMS)
		}
	}
	count := map[string]int{}
	for _, sp := range rec.Spans {
		within("coordinator", rec, sp)
		count[sp.Name]++
		switch sp.Name {
		case "rtt", "ha.mirror", "ha.journal_append":
			if sp.DurMS <= 0 {
				t.Errorf("span %s of worker %d has duration %.3f ms", sp.Name, sp.Worker, sp.DurMS)
			}
		}
	}
	for name, want := range map[string]int{
		"graph.apply": 1, "ha.journal_append": 1, "ball": 1, "merge": 1,
		"plan": len(res.Contacted), "rtt": len(res.Contacted), "ha.mirror": len(res.Contacted),
	} {
		if count[name] != want {
			t.Errorf("%d %s spans, want %d (spans %+v)", count[name], name, want, rec.Spans)
		}
	}
	for _, w := range workerRecords(t, rec) {
		groups := map[string]int{}
		for _, sp := range w.Spans {
			within("worker", w, sp)
			groups[sp.Name]++
		}
		// A fragment holding the node the batch created evaluates every
		// group twice: for the batch, and for the assignment.
		if groups["graph.apply"] != 1 || groups["dynamic.affected"] == 0 || groups["dynamic.affected"]%4 != 0 ||
			groups["dynamic.verify"] != groups["dynamic.affected"] {
			t.Errorf("worker record's spans %v, want graph.apply once and dynamic.affected and dynamic.verify once per group (4) per evaluation", groups)
		}
	}
}

// updateAllocsPerBatch is what a steady-state update-watch batch on
// watchRig allocates, in objects, coordinator and in-process workers
// together: the result, the pre-batch views, and what crosses each hop —
// requests, replies, their decoded batches and deltas. Recorded at 83 when
// each batch's scratch moved into the owner that serializes it (157
// before), and at 79 when Versioned.Apply stopped returning a touched set
// (one fewer per graph copy); the gate allows 10% over it.
const updateAllocsPerBatch = 79

// TestUpdateAllocsPerBatch holds the write path's per-batch garbage to its
// recorded count: a timing-free gate on the bookkeeping a batch pays for.
// Objects, not bytes: the byte counts move with map and slice growth.
func TestUpdateAllocsPerBatch(t *testing.T) {
	const persons, runs = 400, 64
	c, base := watchRig(t, persons, &recordingJournal{}, nil)
	batches := make([][]server.UpdateSpec, 16+runs+1) // + AllocsPerRun's warm-up
	for i := range batches {
		batches[i] = specsOf(fixture.WatchBatch(persons, base, i))
	}
	next := 0
	update := func() {
		if _, err := c.Update(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 16 { // the first 16 batches grow the scratch and the rows
		update()
	}
	got := testing.AllocsPerRun(runs, update)
	t.Logf("%.0f allocations per batch", got)
	if limit := updateAllocsPerBatch * 1.1; got > limit {
		t.Errorf("an update-watch batch allocates %.0f objects, over the %.0f this gate allows (recorded %d)", got, limit, updateAllocsPerBatch)
	}
}

// TestUpdateLockHistograms: one update observes its wait for the write
// lock and its hold of it, once each, and the hold fits inside the
// update's own latency.
func TestUpdateLockHistograms(t *testing.T) {
	reg := obs.NewRegistry()
	c, base := watchRig(t, 200, nil, reg)
	if _, err := c.Update(specsOf(fixture.WatchBatch(200, base, 0))); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	for _, name := range []string{"cluster.update.lock_wait.ms", "cluster.update.lock_hold.ms", "cluster.update.ms"} {
		if h := s.Histograms[name]; h.Count != 1 {
			t.Errorf("%s observed %d times, want 1", name, h.Count)
		}
	}
	if hold, total := s.Histograms["cluster.update.lock_hold.ms"].Sum, s.Histograms["cluster.update.ms"].Sum; hold > total {
		t.Errorf("lock held %.3f ms of a %.3f ms update", hold, total)
	}
}
