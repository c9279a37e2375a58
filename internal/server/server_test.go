package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
)

// startServer runs a server on a loopback listener and returns a
// connected client plus the address for extra connections.
func startServer(t *testing.T, cfg server.Config) (*client.Client, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cfg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	})
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 30 * time.Second
	t.Cleanup(func() { c.Close() })
	return c, ln.Addr().String()
}

const followPattern = `qgp
n xo Person *
n z Person
n y Product
e xo z follow >=2
e z y buy
`

// genPattern matches the lowercase labels of the synthetic generators.
const genPattern = `qgp
n xo person *
n z person
n y product
e xo z follow
e z y buy
`

// tinyGraph: p0 follows p1,p2 who both buy the product; p3 follows only p1.
const tinyGraphText = `graph 5
n 0 Person
n 1 Person
n 2 Person
n 3 Person
n 4 Product
e 0 1 follow
e 0 2 follow
e 1 4 buy
e 2 4 buy
e 3 1 follow
`

func TestPingAndErrors(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Querying before loading a graph is a command error, not a
	// connection error.
	_, err := c.Match(followPattern, nil)
	if err == nil || !strings.Contains(err.Error(), "no graph") {
		t.Fatalf("err = %v, want no-graph error", err)
	}
	// Unknown command.
	_, err = c.Do(&server.Request{Cmd: "fhqwhgads"})
	if err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("err = %v", err)
	}
	// The connection survives errors.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadAndMatch(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	nodes, edges, err := c.LoadText(tinyGraphText)
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 5 || edges != 5 {
		t.Fatalf("loaded %d/%d", nodes, edges)
	}
	resp, err := c.Match(followPattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 1 || resp.Matches[0] != 0 {
		t.Fatalf("matches = %v, want [0]", resp.Matches)
	}
	if resp.Metrics == nil {
		t.Error("metrics missing")
	}

	// All three engines agree.
	for _, engine := range []string{"qmatch", "qmatchn", "enum"} {
		r, err := c.Match(followPattern, &client.MatchOptions{Engine: engine})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if len(r.Matches) != 1 || r.Matches[0] != 0 {
			t.Fatalf("%s matches = %v", engine, r.Matches)
		}
	}

	// The planner path returns the same answers.
	r, err := c.Match(followPattern, &client.MatchOptions{Planner: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Matches) != 1 || r.Matches[0] != 0 {
		t.Fatalf("planner matches = %v", r.Matches)
	}
}

func TestLoadJSONAndBadInputs(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	doc := `{"nodes":[{"id":"a","label":"Person"},{"id":"b","label":"Person"}],
	         "edges":[{"from":"a","to":"b","label":"follow"}]}`
	nodes, edges, err := c.LoadJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 2 || edges != 1 {
		t.Fatalf("loaded %d/%d", nodes, edges)
	}
	if _, _, err := c.LoadJSON(`{"nodes": [}`); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, _, err := c.LoadText("not a graph"); err == nil {
		t.Error("bad text accepted")
	}
	if _, err := c.Match("qgp\nnot a pattern", nil); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := c.Do(&server.Request{Cmd: "load", Format: "xml", Data: "<g/>"}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestGenStatsPartitionPMatch(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	nodes, edges, err := c.Gen("social", 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if nodes == 0 || edges == 0 {
		t.Fatalf("gen produced %d/%d", nodes, edges)
	}

	st, err := c.Stats(5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != nodes || st.Labels == 0 || len(st.Triples) != 5 || len(st.TripleRows) <= 5 {
		t.Fatalf("stats = %+v", st)
	}
	for i := 1; i < len(st.TripleRows); i++ {
		if st.TripleRows[i-1].Count < st.TripleRows[i].Count {
			t.Fatalf("triple rows not by descending count at %d: %+v", i, st.TripleRows)
		}
	}
	// On a hand-checked graph every rendered row is exact: Person follows
	// Person 3 times from 2 sources to 2 targets; 2 Persons buy 1 Product.
	tiny, _ := startServer(t, server.Config{})
	if _, _, err := tiny.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	ts, err := tiny.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{
		"Person -follow-> Person: count=3 srcs=2 dsts=2 fanOut=1.50",
		"Person -buy-> Product: count=2 srcs=2 dsts=1 fanOut=1.00",
	}; !reflect.DeepEqual(ts.Triples, want) {
		t.Fatalf("rendered triples %q, want %q", ts.Triples, want)
	}

	part, err := c.Partition(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Fragments) != 4 || part.Skew <= 0 {
		t.Fatalf("partition = %+v", part)
	}

	// Sequential and parallel answers agree.
	seq, err := c.Match(genPattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Total == 0 {
		t.Fatal("generated workload produced no matches; the test is vacuous")
	}
	par, err := c.PMatch(genPattern, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seq.Matches) != fmt.Sprint(par.Matches) {
		t.Fatalf("parallel %v != sequential %v", par.Matches, seq.Matches)
	}
	// pmatch forwards the engine name: enum is PEnum, an unknown one fails.
	penum, err := c.Do(&server.Request{Cmd: "pmatch", Pattern: genPattern, Engine: "enum", Workers: 3})
	if err != nil || fmt.Sprint(seq.Matches) != fmt.Sprint(penum.Matches) {
		t.Fatalf("pmatch engine=enum: %v (err %v) != sequential %v", penum, err, seq.Matches)
	}
	if _, err := c.Do(&server.Request{Cmd: "pmatch", Pattern: genPattern, Engine: "bogus"}); err == nil || !strings.Contains(err.Error(), `unknown engine "bogus"`) {
		t.Fatalf("pmatch with an unknown engine: err = %v", err)
	}
}

func TestRuleCommand(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	q1 := "qgp\nn xo Person *\nn z Person\ne xo z follow\n"
	q2 := "qgp\nn xo Person *\nn y Product\ne xo y buy\n"
	resp, err := c.Rule(q1, q2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// p1 and p2 follow someone... no: antecedent is xo follows z. p0 and
	// p3 follow someone; of those, who buys? Neither p0 nor p3 buys.
	if resp.Support != 0 {
		t.Fatalf("support = %d, want 0", resp.Support)
	}

	// Reverse rule: followers of buyers... use buy as antecedent.
	resp, err = c.Rule(q2, q1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// p1, p2 buy; p1 is followed... consequent: xo follows z. Neither p1
	// nor p2 follows anyone, so support stays 0 — but the command works.
	if !resp.OK {
		t.Fatal("rule command failed")
	}
}

func TestRPQFilterCommand(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	// People who follow ≥1 person (p0, p3), filtered to those who can
	// reach ≥2 nodes through follow.buy? within 2 hops.
	pattern := "qgp\nn xo Person *\nn z Person\ne xo z follow\n"
	resp, err := c.RPQFilter(pattern, "follow.buy? within 2 >=3")
	if err != nil {
		t.Fatal(err)
	}
	// p0 reaches p1, p2, product = 3; p3 reaches p1, product = 2.
	if len(resp.Matches) != 1 || resp.Matches[0] != 0 {
		t.Fatalf("rpqfilter matches = %v, want [0]", resp.Matches)
	}
	if _, err := c.RPQFilter(pattern, "gibberish constraint"); err == nil {
		t.Error("bad constraint accepted")
	}
}

func TestBudgetEnforced(t *testing.T) {
	c, _ := startServer(t, server.Config{DefaultBudget: 1})
	if _, _, err := c.Gen("social", 500, 1); err != nil {
		t.Fatal(err)
	}
	_, err := c.Match(genPattern, nil)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	// Per-request budget override can raise it.
	if _, err := c.Match(genPattern, &client.MatchOptions{Budget: 100_000_000}); err != nil {
		t.Fatalf("budget override failed: %v", err)
	}
}

func TestMatchLimit(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, _, err := c.Gen("social", 400, 3); err != nil {
		t.Fatal(err)
	}
	pattern := "qgp\nn xo person *\nn z person\ne xo z follow\n"
	full, err := c.Match(pattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Total < 3 {
		t.Skipf("graph too sparse: %d matches", full.Total)
	}
	limited, err := c.Match(pattern, &client.MatchOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Matches) != 2 || limited.Total != full.Total {
		t.Fatalf("limited = %d of %d (want 2 of %d)", len(limited.Matches), limited.Total, full.Total)
	}
}

func TestConcurrentSessions(t *testing.T) {
	_, addr := startServer(t, server.Config{MaxConcurrent: 2})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			c.Timeout = 30 * time.Second
			if _, _, err := c.Gen("social", 150, seed); err != nil {
				errs <- err
				return
			}
			resp, err := c.Match(genPattern, nil)
			if err != nil {
				errs <- err
				return
			}
			if !resp.OK {
				errs <- fmt.Errorf("session %d: %s", seed, resp.Error)
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSessionIsolation(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if _, _, err := c1.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	// c2 has no graph: its session must not see c1's.
	if _, err := c2.Stats(3); err == nil || !strings.Contains(err.Error(), "no graph") {
		t.Fatalf("session leak: err = %v", err)
	}
}

func TestMalformedLineKeepsConnection(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(conn)
	var resp server.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "bad request") {
		t.Fatalf("resp = %+v", resp)
	}
	// Connection still works.
	if _, err := conn.Write([]byte(`{"id": 2, "cmd": "ping"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !resp.Pong {
		t.Fatalf("ping after garbage = %+v", resp)
	}
}

// TestBadRequestReplies pins, byte for byte, the replies to two lines the
// envelope codec leaves to encoding/json: one that is not JSON (no id
// could be read, so id 0, and the syntax error), and one whose cmd is a
// number (the id read before the type error is echoed, with
// encoding/json's text for it).
func TestBadRequestReplies(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	in := server.NewLineReader(conn, 1<<20)
	for _, c := range []struct{ line, reply string }{
		{"this is not json", `{"id":0,"ok":false,"error":"bad request: invalid character 'h' in literal true (expecting 'r')"}`},
		{`{"id":5,"cmd":3}`, `{"id":5,"ok":false,"error":"bad request: json: cannot unmarshal number into Go struct field Request.cmd of type string"}`},
	} {
		if _, err := conn.Write([]byte(c.line + "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := in.ReadLine()
		if err != nil || string(reply) != c.reply {
			t.Fatalf("%s: reply\n%s (%v)\nwant\n%s", c.line, reply, err, c.reply)
		}
	}
}

func TestShutdownClosesConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	go srv.Serve(ln)

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err == nil {
		t.Error("ping succeeded after shutdown")
	}
	// Serving again after shutdown refuses.
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln2.Close()
	if err := srv.Serve(ln2); err == nil {
		t.Error("Serve after Shutdown accepted")
	}
}

func TestGraphSizeCap(t *testing.T) {
	c, _ := startServer(t, server.Config{MaxGraphSize: 100})
	if _, _, err := c.Gen("social", 500, 1); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("err = %v, want size cap", err)
	}
}

func TestUpdateCommand(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	// p3 follows only p1; give p3 a second followee who buys, then p3
	// matches the follow>=2+buy pattern too.
	nodes, edges, err := c.Update(
		server.UpdateSpec{Op: "addEdge", From: 3, To: 2, Label: "follow"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 5 || edges != 6 {
		t.Fatalf("after update: %d/%d", nodes, edges)
	}
	resp, err := c.Match(followPattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 2 || resp.Matches[0] != 0 || resp.Matches[1] != 3 {
		t.Fatalf("matches after update = %v, want [0 3]", resp.Matches)
	}

	// removeNode isolates the product: nobody matches.
	if _, _, err := c.Update(server.UpdateSpec{Op: "removeNode", From: 4}); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Match(followPattern, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 0 {
		t.Fatalf("matches after product removal = %v", resp.Matches)
	}

	// Errors: unknown op, out-of-range node, empty batch — session graph
	// survives each.
	for _, bad := range [][]server.UpdateSpec{
		{{Op: "teleport"}},
		{{Op: "addEdge", From: 0, To: 99, Label: "x"}},
		nil,
	} {
		if _, _, err := c.Update(bad...); err == nil {
			t.Errorf("Update(%v) accepted", bad)
		}
	}
	if _, err := c.Stats(1); err != nil {
		t.Fatalf("session graph lost after failed updates: %v", err)
	}
}

func TestUpdateBeforeLoad(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, _, err := c.Update(server.UpdateSpec{Op: "addNode", Label: "x"}); err == nil {
		t.Fatal("update without a graph accepted")
	}
}

func TestWatchStandingPattern(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	// Standing pattern: people following ≥2 buyers of the product.
	resp, err := c.Watch("buyers", followPattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) != 1 || resp.Matches[0] != 0 {
		t.Fatalf("initial watch answers = %v, want [0]", resp.Matches)
	}

	// p3 follows p2 as well: p3 enters the answer set.
	up, err := c.UpdateWithDeltas(server.UpdateSpec{Op: "addEdge", From: 3, To: 2, Label: "follow"})
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Deltas) != 1 || up.Deltas[0].Watch != "buyers" {
		t.Fatalf("deltas = %+v", up.Deltas)
	}
	d := up.Deltas[0]
	if len(d.Added) != 1 || d.Added[0] != 3 || len(d.Removed) != 0 {
		t.Fatalf("delta = %+v, want +[3]", d)
	}
	if d.Affected == 0 {
		t.Error("delta reports no verification work")
	}

	// Removing a buy edge drops both answers.
	up, err = c.UpdateWithDeltas(server.UpdateSpec{Op: "removeEdge", From: 1, To: 4, Label: "buy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Deltas[0].Removed) != 2 {
		t.Fatalf("delta after removal = %+v, want -[0 3]", up.Deltas[0])
	}

	// Unwatch: later updates carry no deltas.
	if err := c.Unwatch("buyers"); err != nil {
		t.Fatal(err)
	}
	up, err = c.UpdateWithDeltas(server.UpdateSpec{Op: "addEdge", From: 1, To: 4, Label: "buy"})
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Deltas) != 0 {
		t.Fatalf("deltas after unwatch = %+v", up.Deltas)
	}
}

func TestWatchErrorsAndLifecycle(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, err := c.Watch("w", followPattern); err == nil {
		t.Error("watch before load accepted")
	}
	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Watch("", followPattern); err == nil {
		t.Error("empty watch name accepted")
	}
	if _, err := c.Watch("w", "not a pattern"); err == nil {
		t.Error("bad watch pattern accepted")
	}
	if _, err := c.Watch("w", followPattern); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Watch("w", followPattern); err == nil {
		t.Error("duplicate watch accepted")
	}
	if err := c.Unwatch("nope"); err == nil {
		t.Error("unwatch of unknown name accepted")
	}
	// Loading a new graph drops the watches.
	if _, _, err := c.LoadText(tinyGraphText); err != nil {
		t.Fatal(err)
	}
	if err := c.Unwatch("w"); err == nil {
		t.Error("watch survived a graph replacement")
	}
}

// An update is served the same whichever way its batch is spelled: as the
// array of objects every client written before the packed form sends, or
// as the packed string. Two sessions run the same script, one per form,
// over raw lines; every reply — counts, deltas, the final answers, stats
// and ping — must agree.
func TestUpdateAcceptsBothForms(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	batches := [][]server.UpdateSpec{
		{{Op: "addEdge", From: 3, To: 2, Label: "follow"}},
		{{Op: "addNode", Label: "Person"}, {Op: "addEdge", From: 5, To: 1, Label: "follow"}, {Op: "addEdge", From: 5, To: 2, Label: "follow"}},
		{{Op: "removeEdge", From: 0, To: 2, Label: "follow"}, {Op: "addEdge", From: 0, To: 0, Label: ""}},
		{{Op: "removeNode", From: 1}},
	}
	session := func(spell func([]server.UpdateSpec) []byte) []server.Response {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		dec := json.NewDecoder(conn)
		var replies []server.Response
		send := func(line string) {
			t.Helper()
			if _, err := conn.Write([]byte(line + "\n")); err != nil {
				t.Fatal(err)
			}
			var resp server.Response
			if err := dec.Decode(&resp); err != nil {
				t.Fatal(err)
			}
			if !resp.OK {
				t.Fatalf("%s: %s", line, resp.Error)
			}
			resp.ElapsedMS = 0
			replies = append(replies, resp)
		}
		text, _ := json.Marshal(tinyGraphText)
		pattern, _ := json.Marshal(followPattern)
		send(`{"id":1,"cmd":"load","data":` + string(text) + `}`)
		send(`{"id":2,"cmd":"watch","watch":"buyers","pattern":` + string(pattern) + `}`)
		for _, b := range batches {
			send(`{"id":3,"cmd":"update","updates":` + string(spell(b)) + `}`)
		}
		send(`{"id":4,"cmd":"match","pattern":` + string(pattern) + `}`)
		send(`{"id":5,"cmd":"stats","topK":10}`)
		send(`{"id":6,"cmd":"ping"}`)
		return replies
	}
	array := session(func(b []server.UpdateSpec) []byte {
		line, err := json.Marshal(b)
		if err != nil || line[0] != '[' {
			t.Fatalf("array form: %s (%v)", line, err)
		}
		return line
	})
	packed := session(func(b []server.UpdateSpec) []byte {
		line, err := json.Marshal(server.Batch(b))
		if err != nil || line[0] != '"' {
			t.Fatalf("packed form: %s (%v)", line, err)
		}
		return line
	})
	if !reflect.DeepEqual(array, packed) {
		t.Fatalf("the two forms were served differently:\n array: %+v\npacked: %+v", array, packed)
	}
	// The script did something: the first batch brought p3 in, the last
	// took everybody out.
	if d := array[2].Deltas; len(d) != 1 || len(d[0].Added) != 1 || d[0].Added[0] != 3 {
		t.Fatalf("first update's deltas = %+v, want +[3]", d)
	}
	if last := array[5]; last.Nodes != 6 || len(last.Deltas) != 1 || len(last.Deltas[0].Removed) == 0 {
		t.Fatalf("last update = %+v", last)
	}
}

// What the batch decoder makes of a peer's block: the header's example,
// then one block per way of being malformed.
func TestBatchBlocks(t *testing.T) {
	for _, c := range []struct{ what, block, err string }{
		{"the protocol header's example", `"AQZmb2xsb3cCAgQA"`, ""},
		{"no labels, no ops", `"AA=="`, ""},
		{"from = MinInt64 under another encoder's escapes", `"AQAC\/\/\/\/\/\/\/\/\/\/\/\/AQAA"`, ""},
		{"the last op's label index cut off", `"AQZmb2xsb3cCAgQ="`, "truncated"},
		{"label 1 of a table of 1", `"AQZmb2xsb3cCAgQB"`, "label 1 of a table of 1"},
		{"opcode 5", `"AQZmb2xsb3cFAgQA"`, "unknown opcode 5"},
		{"opcode 0", `"AQZmb2xsb3cAAgQA"`, "unknown opcode 0"},
		{"a table of 5 labels, one present", `"BQZmb2xsb3c="`, "truncated"},
		{"a label of 9 bytes, 6 present", `"AQlmb2xsb3c="`, "truncated"},
		{"a table of 2³² labels in a 5-byte block", `"/////w8="`, "truncated"},
		{"an 11-byte varint for to", `"AQACAv////////////8BAA=="`, "overlong"},
		{"an empty block", `""`, "truncated"},
		{"not base64", `"AQZmb2xsb3cCAgQA!"`, "base64"},
	} {
		var b server.Batch
		err := json.Unmarshal([]byte(c.block), &b)
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%s: %v", c.what, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s: err = %v, want one naming %q", c.what, err, c.err)
		}
	}
	var b server.Batch
	if err := json.Unmarshal([]byte(`"AQZmb2xsb3cCAgQA"`), &b); err != nil || len(b) != 1 || b[0] != (server.UpdateSpec{Op: "addEdge", From: 1, To: 2, Label: "follow"}) {
		t.Fatalf("the header's example decoded to %+v (%v)", b, err)
	}
	if err := json.Unmarshal([]byte(`"AQAC\/\/\/\/\/\/\/\/\/\/\/\/AQAA"`), &b); err != nil || len(b) != 1 || b[0].From != math.MinInt64 {
		t.Fatalf("the escaped block decoded to %+v (%v)", b, err)
	}
	if _, err := json.Marshal(server.Batch{{Op: "teleport"}}); err == nil {
		t.Fatal("a batch with an unknown op was encoded")
	}
}
