package cluster

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/dynamic"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
)

// flakyPool hands out sessions that fail the commands named in failOn,
// one entry per Get, then healthy ones. With applied set, such a session
// applies the command before it fails: the reply is lost, and the session
// with it.
type flakyPool struct {
	*testPool
	failOn  []string
	applied bool
}

func (p *flakyPool) Get(weight int, avoid map[int]bool) (Transport, int, error) {
	t, ep, err := p.testPool.Get(weight, avoid)
	if err == nil && len(p.failOn) > 0 {
		if p.applied {
			t = &replyLost{Transport: t, failOn: p.failOn[0]}
		} else {
			t = &flakyTransport{Transport: t, failOn: p.failOn[0]}
		}
		p.failOn = p.failOn[1:]
	}
	return t, ep, err
}

// replyLost applies the command named failOn, then closes the session
// and reports a transport failure instead of the reply.
type replyLost struct {
	Transport
	failOn string
}

func (r *replyLost) Do(req *server.Request) (*server.Response, error) {
	resp, err := r.Transport.Do(req)
	if err == nil && req.Cmd == r.failOn {
		r.Transport.Close()
		return nil, errors.New("injected: reply lost")
	}
	return resp, err
}

// TestShippedFragmentEqualsText: what shipRequest puts on the wire — the
// binary graph format — leaves a worker session holding exactly what the
// text format through the fragment command leaves: the same counts, the same
// owned set, the same local answers to the six-pattern mix. And a
// fragment re-shipped after its primary was killed — the first attempt
// dying in the fragment command itself — still answers like a single
// process; when every re-ship dies, the read is refused naming the
// shipment.
func TestShippedFragmentEqualsText(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(400, 17))
	pool := &flakyPool{testPool: newTestPool(4)}
	ts := InProcessN(2, server.Config{})
	c, err := New(g, ts, Config{D: 2, Pool: pool, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	for _, w := range c.workers {
		ship, err := w.shipRequest(c.Graph())
		if err != nil {
			t.Fatal(err)
		}
		if ship.Format != "binary" {
			t.Fatalf("fragment %d ships as format %q, want binary", w.id, ship.Format)
		}
		sub, _ := graph.InducedOf(c.Graph(), w.ids.toGlobal)
		var text strings.Builder
		if _, err := sub.WriteTo(&text); err != nil {
			t.Fatal(err)
		}
		if len(ship.Data) >= text.Len()/2 {
			t.Errorf("fragment %d: %d bytes of binary against %d of text", w.id, len(ship.Data), text.Len())
		}
		tc := InProcess(server.Config{}).(*client.Client)
		t.Cleanup(func() { tc.Close() })
		if _, err := tc.Do(&server.Request{Cmd: "fragment", Data: text.String(), Owned: ship.Owned}); err != nil {
			t.Fatalf("text fragment %d: %v", w.id, err)
		}
		both := func(req server.Request) (*server.Response, *server.Response) {
			t.Helper()
			viaText, err := tc.Do(&req)
			if err != nil {
				t.Fatalf("fragment %d shipped as text: %s: %v", w.id, req.Cmd, err)
			}
			shipped, err := w.copies[0].t.Do(&req)
			if err != nil {
				t.Fatalf("fragment %d as shipped: %s: %v", w.id, req.Cmd, err)
			}
			return viaText, shipped
		}
		a, b := both(server.Request{Cmd: "ping"})
		if a.Nodes != b.Nodes || a.Edges != b.Edges || a.Owned != b.Owned || !b.Fragment ||
			b.Nodes != sub.NumNodes() || b.Edges != sub.NumEdges() || b.Owned != len(ship.Owned) {
			t.Fatalf("fragment %d: text session holds %d/%d owning %d, shipped session %d/%d owning %d, coordinator %d/%d owning %d",
				w.id, a.Nodes, a.Edges, a.Owned, b.Nodes, b.Edges, b.Owned, sub.NumNodes(), sub.NumEdges(), len(ship.Owned))
		}
		// Every owned person answers the one-node pattern, so its
		// answers are the owned set as the session holds it.
		patterns := []string{"qgp\nn xo person *\n"}
		for _, m := range fixture.Mix {
			patterns = append(patterns, m.DSL)
		}
		for _, dsl := range patterns {
			a, b := both(server.Request{Cmd: "match", Pattern: dsl})
			if !reflect.DeepEqual(a.Matches, b.Matches) {
				t.Fatalf("fragment %d, %q: text session answers %v, shipped session %v", w.id, dsl, a.Matches, b.Matches)
			}
		}
	}

	answersEqualSingleProcess := func(when string) {
		t.Helper()
		for _, m := range fixture.Mix {
			q := mustParse(t, m.DSL)
			got, err := c.Match(q)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if want := globalAnswers(t, c.Graph(), q); !reflect.DeepEqual(nodeIDs(got.Matches), nodeIDs(want)) {
				t.Fatalf("%s, %s: cluster answers %v, single process %v", when, m.Name, got.Matches, want)
			}
		}
	}
	answersEqualSingleProcess("as built")

	// Kill fragment 0's primary. There is no replica, so the next read
	// re-ships; the first pool session dies in the fragment command, and
	// a second re-ship serves the read.
	pool.failOn = []string{"fragment"}
	ts[0].Close()
	answersEqualSingleProcess("after a failed re-ship")
	if pool.handedCount() != 2 {
		t.Fatalf("pool handed out %d sessions, want the failed one and its successor", pool.handedCount())
	}

	// When every re-ship fails, the read is refused, naming the shipment.
	pool.failOn = []string{"fragment", "fragment"}
	c.workers[0].copies[0].t.Close()
	_, err = c.Match(mustParse(t, fixture.Mix[0].DSL))
	var we *WorkerError
	if !errors.As(err, &we) || we.Worker != 0 || !strings.Contains(err.Error(), "shipping fragment") {
		t.Fatalf("match while every re-ship fails: %v, want a WorkerError for worker 0 naming the shipment", err)
	}
	answersEqualSingleProcess("after the re-ship")
	if pool.handedCount() != 5 {
		t.Fatalf("pool handed out %d sessions, want the three failed ones and two successors", pool.handedCount())
	}
}

// TestFailedReshipIsRetried: a failover whose re-ship fails is one more
// attempt, not the end of the operation. Fragment 0 has no replica; its
// primary is killed, and the first session the pool hands out applies the
// fragment but loses the reply. Update re-ships to the next session and
// answers with the single process's exact deltas; the coordinator serves
// on.
func TestFailedReshipIsRetried(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(200, 5))
	pool := &flakyPool{testPool: newTestPool(4), failOn: []string{"fragment"}, applied: true}
	ts := InProcessN(2, server.Config{})
	c, err := New(g.Clone(), ts, Config{D: 2, Pool: pool, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	q := mustParse(t, "qgp\nn xo person *\nn z person\ne xo z follow >=1\n")
	if _, err := c.Watch("w", q); err != nil {
		t.Fatal(err)
	}
	vg := graph.NewVersioned(c.Graph().Clone())
	oracle, err := dynamic.NewMatcher(vg.Graph(), q)
	if err != nil {
		t.Fatal(err)
	}

	ts[0].Close()
	// Two new nodes, one assigned to each worker, each following a person.
	n := int64(g.NumNodes())
	specs := []server.UpdateSpec{
		{Op: "addNode", Label: "person"}, {Op: "addEdge", From: n, To: 0, Label: "follow"},
		{Op: "addNode", Label: "person"}, {Op: "addEdge", From: n + 1, To: 1, Label: "follow"},
	}
	res, err := c.Update(specs)
	if err != nil {
		t.Fatalf("update after a lost re-ship reply: %v", err)
	}
	if !reflect.DeepEqual(res.Contacted, []int{0, 1}) {
		t.Fatalf("contacted %v, want both workers", res.Contacted)
	}
	ups, err := server.ToUpdates(specs)
	if err != nil {
		t.Fatal(err)
	}
	old, err := vg.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.ApplyShared(old, vg.Graph(), nil)
	if err != nil || len(want.Added) == 0 {
		t.Fatalf("single process: %+v, %v; want the new followers added", want, err)
	}
	if len(res.Deltas) != 1 || !reflect.DeepEqual(nodeIDs64(res.Deltas[0].Added), toInt64(want.Added)) ||
		!reflect.DeepEqual(nodeIDs64(res.Deltas[0].Removed), toInt64(want.Removed)) {
		t.Fatalf("deltas %+v, single process +%v -%v", res.Deltas, want.Added, want.Removed)
	}
	if pool.handedCount() != 2 {
		t.Fatalf("pool handed out %d sessions, want the one that lost its reply and its successor", pool.handedCount())
	}
	if got, err := c.Match(q); err != nil || !reflect.DeepEqual(nodeIDs(got.Matches), nodeIDs(globalAnswers(t, c.Graph(), q))) {
		t.Fatalf("match after the re-ship: %v, %v", got, err)
	}
}
