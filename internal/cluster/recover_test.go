package cluster

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/tenant"
)

// recordingJournal counts the calls an UpdateJournal receives.
type recordingJournal struct {
	mu                                     sync.Mutex
	setGraph, batches, registered, removed int
}

func (r *recordingJournal) SetGraph(*graph.Graph) error { return r.count(&r.setGraph) }

func (r *recordingJournal) AppendBatch([]server.UpdateSpec) error { return r.count(&r.batches) }

func (r *recordingJournal) WatchRegistered(name, pattern string) error {
	return r.count(&r.registered)
}

func (r *recordingJournal) WatchRemoved(string) error { return r.count(&r.removed) }

func (r *recordingJournal) count(n *int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	*n++
	return nil
}

// calls returns the counts as {SetGraph, AppendBatch, WatchRegistered,
// WatchRemoved}.
func (r *recordingJournal) calls() [4]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return [4]int{r.setGraph, r.batches, r.registered, r.removed}
}

// TestRecoverWritesNothing: rebuilding a coordinator from recovered state
// is a read of the journal. Recover makes no journal call, whether it
// succeeds or a watch fails to register, and the journal it was given is
// attached afterwards: the first batch and the first watch change reach
// it.
func TestRecoverWritesNothing(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(120, 5))
	watches := map[string]string{
		"b": mustParse(t, testPatterns[1]).String(),
		"a": mustParse(t, testPatterns[0]).String(),
		"c": mustParse(t, testPatterns[0]).String(),
	}
	rj := &recordingJournal{}
	ts := InProcessN(2, server.Config{})
	defer CloseAll(ts)
	c, err := Recover(g, watches, ts, Config{D: 2, Journal: rj})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer c.Close()
	if got := rj.calls(); got != [4]int{} {
		t.Fatalf("journal calls during Recover = %v (SetGraph, AppendBatch, WatchRegistered, WatchRemoved), want none", got)
	}
	if got := c.Watches(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("recovered watches = %q", got)
	}
	for name, dsl := range watches {
		res, err := c.Match(mustParse(t, dsl))
		if err != nil {
			t.Fatal(err)
		}
		if want := globalAnswers(t, g, mustParse(t, dsl)); !reflect.DeepEqual(nodeIDs(res.Matches), nodeIDs(want)) {
			t.Fatalf("watch %q pattern: recovered cluster answers %v, single process %v", name, res.Matches, want)
		}
	}

	// The journal is attached: later writes reach it.
	if _, err := c.Update([]server.UpdateSpec{{Op: "addEdge", From: 3, To: 17, Label: "follow"}}); err != nil {
		t.Fatal(err)
	}
	if got := rj.calls(); got != [4]int{0, 1, 0, 0} {
		t.Fatalf("journal calls after the first Update = %v, want one AppendBatch", got)
	}
	if err := c.Unwatch("a"); err != nil {
		t.Fatal(err)
	}
	if got := rj.calls(); got != [4]int{0, 1, 0, 1} {
		t.Fatalf("journal calls after Unwatch = %v, want one AppendBatch and one WatchRemoved", got)
	}

	// A watch that cannot register (2 hops against d=1) fails the
	// recovery by name, after "a" registered — still without a write.
	rj2 := &recordingJournal{}
	ts2 := InProcessN(2, server.Config{})
	defer CloseAll(ts2)
	_, err = Recover(g, watches, ts2, Config{D: 1, Journal: rj2})
	if err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("Recover with an unregistrable watch: err = %v, want one naming \"b\"", err)
	}
	if got := rj2.calls(); got != [4]int{} {
		t.Fatalf("journal calls during a failed Recover = %v, want none", got)
	}
}

// TestFrontendDropsRecoveredCopies: Durable.Graph and Durable.Watches are
// read once. After the request that triggers recovery, and equally after
// a gen that supersedes it, both are nil — the front end does not keep a
// third copy of the graph alive beside the coordinator's and the store's.
func TestFrontendDropsRecoveredCopies(t *testing.T) {
	pattern := mustParse(t, testPatterns[0]).String()
	for _, tc := range []struct {
		name  string
		first func(*client.Client) error
	}{
		{"recovered", func(c *client.Client) error { _, err := c.Match(pattern, nil); return err }},
		{"superseded", func(c *client.Client) error { _, _, err := c.Gen("social", 60, 2); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			durable := &DurableState{
				Journal: &recordingJournal{},
				Graph:   gen.Social(gen.DefaultSocial(100, 3)),
				Watches: map[string]string{tenant.GlobalName("alice", "w"): pattern},
			}
			fe, c := startFrontendWith(t, FrontendConfig{
				Cluster:    Config{D: 2},
				NewWorkers: func() ([]Transport, error) { return InProcessN(2, server.Config{}), nil },
				Durable:    durable,
			})
			if err := tc.first(c); err != nil {
				t.Fatal(err)
			}
			fe.smu.Lock()
			g, ws := durable.Graph, durable.Watches
			fe.smu.Unlock()
			if g != nil || ws != nil {
				t.Fatalf("after the first served request Durable.Graph = %v, Durable.Watches = %v; want both nil", g, ws)
			}
		})
	}
}
