package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// twoServers is one raw-line connection to a qgpd server and one to a
// cluster front end over two embedded workers, whose registry (workers)
// counts the commands the front end sent them.
type twoServers struct {
	t       *testing.T
	names   [2]string
	conns   [2]net.Conn
	readers [2]*bufio.Reader
	workers *obs.Registry
	id      int
}

func newTwoServers(t *testing.T) *twoServers {
	t.Helper()
	quiet := func(string, ...interface{}) {}
	ts := &twoServers{t: t, names: [2]string{"qgpd", "front end"}, workers: obs.NewRegistry()}
	srv := server.New(server.Config{Logf: quiet})
	fe := NewFrontend(FrontendConfig{
		Cluster:    Config{D: 2},
		NewWorkers: func() ([]Transport, error) { return InProcessN(2, server.Config{Metrics: ts.workers}), nil },
		Logf:       quiet,
	})
	t.Cleanup(func() { fe.Shutdown(context.Background()) })
	for i, serve := range []func(net.Conn){srv.ServeConn, fe.ServeConn} {
		a, b := net.Pipe()
		done := make(chan struct{})
		go func() { defer close(done); serve(a) }()
		t.Cleanup(func() { b.Close(); <-done })
		ts.conns[i], ts.readers[i] = b, bufio.NewReader(b)
	}
	return ts
}

// send writes `{"id":N,<fields>}` to both servers and returns their replies.
func (ts *twoServers) send(fields string) [2]server.Response {
	ts.t.Helper()
	ts.id++
	var out [2]server.Response
	for i := range ts.conns {
		if _, err := fmt.Fprintf(ts.conns[i], `{"id":%d,%s}`+"\n", ts.id, fields); err != nil {
			ts.t.Fatal(err)
		}
		line, err := ts.readers[i].ReadBytes('\n')
		if err != nil {
			ts.t.Fatalf("%s: %v", ts.names[i], err)
		}
		if err := json.Unmarshal(line, &out[i]); err != nil {
			ts.t.Fatalf("%s: reply %q: %v", ts.names[i], line, err)
		}
	}
	return out
}

const onePattern = `"qgp\nn xo person *\nn z person\ne xo z follow >=3\n"`

// TestOneRequestOneAnswer: qgpd and the cluster front end serve one command
// table, so every failure both can have reads the same from both, and a
// request refused for what it says is refused before any worker is asked.
// The documented differences (a ping's fragment state, session names in
// replies, merged profile and explain documents, the live fragmentation
// behind partition) are not requests that fail, and are not compared.
func TestOneRequestOneAnswer(t *testing.T) {
	ts := newTwoServers(t)
	refused := func(phase string, lines []string) {
		t.Helper()
		for _, fields := range lines {
			r := ts.send(fields)
			if r[0].OK || r[1].OK || r[0].Error != r[1].Error {
				t.Errorf("%s {%s}:\n  qgpd      ok=%v error=%q\n  front end ok=%v error=%q", phase, fields, r[0].OK, r[0].Error, r[1].OK, r[1].Error)
			}
		}
	}
	refused("no graph", []string{
		`"cmd":"match","pattern":` + onePattern,
		`"cmd":"watch","watch":"w","pattern":` + onePattern,
		`"cmd":"unwatch","watch":"w"`,
		`"cmd":"stats"`,
		`"cmd":"explain","pattern":` + onePattern,
		`"cmd":"profile","pattern":` + onePattern,
		`"cmd":"fhqwhgads"`,
	})
	for i, r := range ts.send(`"cmd":"gen","kind":"social","size":200,"seed":9`) {
		if !r.OK {
			t.Fatalf("%s: gen: %s", ts.names[i], r.Error)
		}
	}
	refused("with a graph", []string{
		`"cmd":"fhqwhgads"`,
		`"cmd":"match","pattern":` + onePattern + `,"engine":"bogus"`,
		`"cmd":"profile","pattern":` + onePattern + `,"engine":"bogus"`,
		`"cmd":"rpqfilter","pattern":` + onePattern + `,"constraint":"follow within 2 >=1","engine":"bogus"`,
		`"cmd":"explain"`,
		`"cmd":"watch","pattern":` + onePattern,
		`"cmd":"profile"`,
		`"cmd":"update"`,
		`"cmd":"update","updates":[]`,
		// Billions of nodes, refused by the size cap before anything is
		// reserved for them.
		`"cmd":"load","data":"graph 3000000000\n"`,
		`"cmd":"gen","size":3000000000`,
	})
	for i, r := range ts.send(`"cmd":"ping"`) {
		if !r.OK || !r.Pong {
			t.Errorf("%s: ping after the refusals: ok=%v error=%q", ts.names[i], r.OK, r.Error)
		}
	}
	snap := ts.workers.Snapshot()
	for _, cmd := range []string{"match", "profile", "explain", "watch", "update"} {
		if n := snap.Counters["server.cmd."+cmd+".count"]; n != 0 {
			t.Errorf("the front end sent %d %s requests to its workers for requests it refused", n, cmd)
		}
	}
}

// TestPartitionCountsNodes: both servers report a fragment's size as the
// nodes it materializes — what the benchmark's partition.replication_x
// divides — so on one graph every fragment holds at most |V| nodes and the
// fragments together at least |V|.
func TestPartitionCountsNodes(t *testing.T) {
	ts := newTwoServers(t)
	nodes := ts.send(`"cmd":"gen","kind":"social","size":200,"seed":9`)[0].Nodes
	for i, r := range ts.send(`"cmd":"partition","workers":2,"d":2`) {
		sum := 0
		for _, n := range r.Fragments {
			if n > nodes {
				t.Errorf("%s: fragments %v: %d exceeds |V| = %d", ts.names[i], r.Fragments, n, nodes)
			}
			sum += n
		}
		if !r.OK || sum < nodes || r.Skew <= 0 {
			t.Errorf("%s: partition = %+v, want fragments covering |V| = %d and a skew", ts.names[i], r, nodes)
		}
	}
}
