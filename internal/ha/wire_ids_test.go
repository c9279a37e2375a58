package ha

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestOutOfRangeIDsRefused: an update naming an id that is no graph.NodeID
// is refused where it arrives — by a single server and by the journaled,
// replicated cluster front end, in the array form and in the packed form —
// with the op's index and the id in the message, and leaves everything as
// it was: what a client can read, the journal's graph, journal.log and
// watches.json. (Until server.ToUpdates checked, the ids were narrowed to
// 32 bits: the first request isolated node 1 and was journaled, the second
// inserted 2 -follow-> 3.)
func TestOutOfRangeIDsRefused(t *testing.T) {
	const pattern = "qgp\nn xo person *\nn z person\ne xo z follow >=2\n"
	bad := []struct {
		spec server.UpdateSpec
		id   int64 // the one the refusal names
	}{
		{server.UpdateSpec{Op: "removeNode", From: 1<<32 + 1}, 1<<32 + 1},
		{server.UpdateSpec{Op: "addEdge", From: 1<<32 + 2, To: -(1 << 32) + 3, Label: "follow"}, 1<<32 + 2},
		{server.UpdateSpec{Op: "removeEdge", To: math.MaxInt64, Label: "follow"}, math.MaxInt64},
	}

	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fe, addr := startDurableFrontend(t, j, 2)
	defer shutdownFrontend(t, fe)
	feConn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer feConn.Close()
	srvConn, serverEnd := net.Pipe()
	go server.New(server.Config{Logf: func(string, ...interface{}) {}}).ServeConn(serverEnd)
	defer srvConn.Close()

	for _, target := range []struct {
		name    string
		conn    net.Conn
		durable bool
	}{{"server", srvConn, false}, {"frontend", feConn, true}} {
		t.Run(target.name, func(t *testing.T) {
			rd := bufio.NewReader(target.conn)
			send := func(line string) server.Response {
				t.Helper()
				if _, err := fmt.Fprintln(target.conn, line); err != nil {
					t.Fatal(err)
				}
				reply, err := rd.ReadBytes('\n')
				if err != nil {
					t.Fatalf("%s: no reply: %v", line, err)
				}
				var resp server.Response
				if err := json.Unmarshal(reply, &resp); err != nil {
					t.Fatalf("%s: reply %s: %v", line, reply, err)
				}
				return resp
			}
			mustSend := func(line string) server.Response {
				t.Helper()
				resp := send(line)
				if !resp.OK {
					t.Fatalf("%s: %s", line, resp.Error)
				}
				return resp
			}
			// state is everything the refused requests must leave alone.
			state := func() string {
				t.Helper()
				st, m := mustSend(`{"cmd":"stats"}`), mustSend(fmt.Sprintf(`{"cmd":"match","pattern":%q}`, pattern))
				s := fmt.Sprintf("%d nodes %d edges %v answers %v", st.Nodes, st.Edges, st.TripleRows, m.Matches)
				if !target.durable {
					return s
				}
				var g bytes.Buffer
				if err := j.Graph().WriteBinary(&g); err != nil {
					t.Fatal(err)
				}
				s += fmt.Sprintf(" graph %x", g.Bytes())
				for _, name := range []string{"journal.log", watchesName} {
					b, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Fatal(err)
					}
					s += fmt.Sprintf(" %s %x", name, b)
				}
				return s
			}

			mustSend(`{"cmd":"gen","kind":"social","size":150,"seed":6}`)
			mustSend(fmt.Sprintf(`{"cmd":"watch","watch":"w","pattern":%q}`, pattern))
			// One accepted batch first, so that the journal has a tail.
			mustSend(`{"cmd":"update","updates":[{"op":"addEdge","from":4,"to":5,"label":"follow"}]}`)
			before := state()
			for _, b := range bad {
				// The offender rides behind an op that is fine: the batch
				// is refused whole and the message says which op it was.
				batch := []server.UpdateSpec{{Op: "addEdge", From: 2, To: 3, Label: "follow"}, b.spec}
				array, _ := json.Marshal(batch)
				packed, _ := json.Marshal(server.Batch(batch))
				for _, updates := range [][]byte{array, packed} {
					resp := send(fmt.Sprintf(`{"cmd":"update","updates":%s}`, updates))
					if resp.OK || !strings.Contains(resp.Error, "update 1:") || !strings.Contains(resp.Error, strconv.FormatInt(b.id, 10)) {
						t.Fatalf("updates %s: reply ok=%v error %q, want a refusal naming update 1 and node %d", updates, resp.OK, resp.Error, b.id)
					}
					if after := state(); after != before {
						t.Fatalf("updates %s were refused and changed the state:\nbefore %s\n after %s", updates, before, after)
					}
				}
			}
			// The same ops with ids that are ids are served.
			mustSend(`{"cmd":"update","updates":[{"op":"addEdge","from":2,"to":3,"label":"follow"},{"op":"removeNode","from":1}]}`)
			if state() == before {
				t.Fatal("an accepted batch changed nothing: the state does not see what the refusals are held to")
			}
		})
	}
}
