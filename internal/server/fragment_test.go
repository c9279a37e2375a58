package server_test

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/graph"
	"repro/internal/server"
)

// fragGraph is a small fragment in the text format: persons 0..3 where 0
// and 1 follow enough people to match, but only 0 and 2 are owned by this
// worker.
const fragGraph = `graph 5
n 0 person
n 1 person
n 2 person
n 3 person
n 4 person
e 0 1 follow
e 0 2 follow
e 1 0 follow
e 1 3 follow
e 3 4 follow
`

const fragPattern = "qgp\nn xo person *\nn z person\ne xo z follow >=2\n"

// TestFragmentRestrictsAnswers: after fragment, match and watch answer
// only for the owned focus candidates — for none when nothing is owned.
func TestFragmentRestrictsAnswers(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	nodes, edges, err := c.Fragment(fragGraph, []int64{0, 2})
	if err != nil {
		t.Fatalf("fragment: %v", err)
	}
	if nodes != 5 || edges != 5 {
		t.Fatalf("fragment loaded %d/%d, want 5/5", nodes, edges)
	}
	// Unrestricted, both 0 and 1 match; this session owns only 0 and 2.
	resp, err := c.Match(fragPattern, nil)
	if err != nil {
		t.Fatalf("match: %v", err)
	}
	if !reflect.DeepEqual(resp.Matches, server.IDList{0}) {
		t.Fatalf("fragment match = %v, want [0]", resp.Matches)
	}
	wresp, err := c.Watch("w", fragPattern)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if !reflect.DeepEqual(wresp.Matches, server.IDList{0}) {
		t.Fatalf("fragment watch answers = %v, want [0]", wresp.Matches)
	}

	// Assigning node 1 surfaces its answer as a watch delta.
	aresp, err := assign(c, 1)
	if err != nil {
		t.Fatalf("assign: %v", err)
	}
	if len(aresp.Deltas) != 1 || !reflect.DeepEqual(aresp.Deltas[0].Added, server.IDList{1}) {
		t.Fatalf("assign deltas = %+v, want watch w +[1]", aresp.Deltas)
	}
	resp, err = c.Match(fragPattern, nil)
	if err != nil {
		t.Fatalf("match after assign: %v", err)
	}
	if !reflect.DeepEqual(resp.Matches, server.IDList{0, 1}) {
		t.Fatalf("match after assign = %v, want [0 1]", resp.Matches)
	}

	// Updates maintain the restricted watch: removing 0's second follow
	// edge drops its answer, and non-owned candidates stay silent.
	uresp, err := c.UpdateWithDeltas(server.UpdateSpec{Op: "removeEdge", From: 0, To: 2, Label: "follow"})
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if len(uresp.Deltas) != 1 || !reflect.DeepEqual(uresp.Deltas[0].Removed, server.IDList{0}) {
		t.Fatalf("update deltas = %+v, want watch w -[0]", uresp.Deltas)
	}

	// A fragment that materialises nodes and owns none answers nothing, on
	// every path that evaluates a pattern (unrestricted, 1 still matches).
	if _, _, err := c.Fragment(fragGraph, []int64{}); err != nil {
		t.Fatalf("fragment owning nothing: %v", err)
	}
	asks := []struct {
		cmd string
		ask func() (*server.Response, error)
	}{
		{"match", func() (*server.Response, error) { return c.Match(fragPattern, nil) }},
		{"rpqfilter", func() (*server.Response, error) { return c.RPQFilter(fragPattern, "follow within 1 >=1") }},
		{"watch", func() (*server.Response, error) { return c.Watch("nobody", fragPattern) }},
		{"profile", func() (*server.Response, error) { return c.ProfileMatch(fragPattern, nil) }},
	}
	for _, a := range asks {
		resp, err := a.ask()
		if err != nil {
			t.Fatalf("%s on a fragment owning nothing: %v", a.cmd, err)
		}
		if len(resp.Matches) != 0 || resp.Total != 0 {
			t.Errorf("%s on a fragment owning nothing = %v (total %d), want no answer", a.cmd, resp.Matches, resp.Total)
		}
		if a.cmd == "profile" {
			if _, mp := profileOf(t, resp); mp == nil || len(mp.Patterns) != 0 {
				t.Errorf("profile on a fragment owning nothing = %s, want an empty engine profile", resp.Profile)
			}
		}
	}
}

// TestFragmentReplyNamesOnlyChangedWatches: a fragment session — a cluster
// coordinator's worker — answers an update with only the watches whose
// answers changed, on the re-verification list and on the assignment list
// alike, and with no deltas key at all when nothing changed; a session
// holding a whole graph still lists every watch with what it re-verified.
// Raw lines, so what is absent is seen absent.
func TestFragmentReplyNamesOnlyChangedWatches(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	send := func(line string) (keys map[string]json.RawMessage, resp server.Response) {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(reply, &keys); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(reply, &resp); err != nil || !resp.OK {
			t.Fatalf("%s: %s (%v)", line, reply, err)
		}
		return keys, resp
	}
	quote := func(s string) string { b, _ := json.Marshal(s); return string(b) }
	watches := func(id int) {
		send(fmt.Sprintf(`{"id":%d,"cmd":"watch","watch":"w","pattern":%s}`, id, quote(fragPattern)))
		send(fmt.Sprintf(`{"id":%d,"cmd":"watch","watch":"v","pattern":%s}`, id+1, quote("qgp\nn xo person *\nn z person\ne xo z follow >=1\n")))
	}
	send(`{"id":1,"cmd":"fragment","data":` + quote(fragGraph) + `,"owned":[0,2]}`)
	watches(2)

	only := func(what string, resp server.Response, want server.WatchDelta) {
		t.Helper()
		if len(resp.Deltas) != 1 || !reflect.DeepEqual(resp.Deltas[0], want) {
			t.Fatalf("%s: deltas %+v, want only %+v", what, resp.Deltas, want)
		}
	}
	// 2 follows 4: one follow, so v gains 2 and w (>=2) does not.
	_, resp := send(`{"id":4,"cmd":"update","updates":[{"op":"addEdge","from":2,"to":4,"label":"follow"}]}`)
	only("update", resp, server.WatchDelta{Watch: "v", Added: server.IDList{2}, Affected: 1})
	// Owning 3, which follows 4 alone: v gains 3, w does not.
	_, resp = send(`{"id":5,"cmd":"update","owned":[3]}`)
	only("assignment", resp, server.WatchDelta{Watch: "v", Added: server.IDList{3}, Affected: 1})
	// 1 follows 2, which still follows only 4.
	if keys, _ := send(`{"id":6,"cmd":"update","updates":[{"op":"addEdge","from":1,"to":2,"label":"follow"}]}`); keys["deltas"] != nil {
		t.Fatalf("an update that changed nothing answered deltas %s", keys["deltas"])
	}
	// Owning 4, which follows nobody.
	if keys, _ := send(`{"id":7,"cmd":"update","owned":[4]}`); keys["deltas"] != nil {
		t.Fatalf("an assignment that changed nothing answered deltas %s", keys["deltas"])
	}
	// Owning 1, which follows 0 and 3: both gain it.
	_, resp = send(`{"id":8,"cmd":"update","owned":[1]}`)
	want := []server.WatchDelta{{Watch: "v", Added: server.IDList{1}, Affected: 1}, {Watch: "w", Added: server.IDList{1}, Affected: 1}}
	if !reflect.DeepEqual(resp.Deltas, want) {
		t.Fatalf("assignment: deltas %+v, want %+v", resp.Deltas, want)
	}

	// The same graph whole: 2 loses its one follow, v loses 2, and w —
	// unchanged — is listed all the same, with the same re-verified count.
	send(`{"id":9,"cmd":"load","data":` + quote(fragGraph+"e 2 4 follow\n") + `}`)
	watches(10)
	_, resp = send(`{"id":12,"cmd":"update","updates":[{"op":"removeEdge","from":2,"to":4,"label":"follow"}]}`)
	if len(resp.Deltas) != 2 || resp.Deltas[0].Watch != "v" || resp.Deltas[1].Watch != "w" {
		t.Fatalf("whole-graph update: deltas %+v, want v and w", resp.Deltas)
	}
	if v, w := resp.Deltas[0], resp.Deltas[1]; !reflect.DeepEqual(v.Removed, server.IDList{2}) || len(w.Added)+len(w.Removed) != 0 || w.Affected == 0 || w.Affected != v.Affected {
		t.Fatalf("whole-graph update: deltas %+v, want v -[2] and w unchanged, over the same re-verified candidates", resp.Deltas)
	}
}

// assign sends what a coordinator sends to give a worker more nodes to own:
// an update that carries owned ids and no mutation.
func assign(c *client.Client, owned ...int64) (*server.Response, error) {
	return c.Do(&server.Request{Cmd: "update", Owned: owned})
}

// TestFragmentValidation: bad owned ids and assign-without-fragment fail.
func TestFragmentValidation(t *testing.T) {
	c, _ := startServer(t, server.Config{})
	if _, err := assign(c, 0); err == nil {
		t.Fatal("assign without fragment succeeded")
	}
	if _, _, err := c.Fragment(fragGraph, []int64{99}); err == nil {
		t.Fatal("fragment accepted an out-of-range owned id")
	}
	// A fresh gen clears fragment mode: match is unrestricted again.
	if _, _, err := c.Fragment(fragGraph, []int64{0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Gen("social", 50, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := assign(c, 0); err == nil {
		t.Fatal("assign after gen should fail: session is no longer a fragment")
	}
}

// binaryData is a text-format graph re-encoded the way a coordinator
// ships a fragment: the binary format, base64.
func binaryData(t *testing.T, text string) string {
	t.Helper()
	g, err := graph.Read(strings.NewReader(text), math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// TestFragmentBinaryFormat: format "binary" carries the same graph as the
// text format, for fragment and for load; a request whose Data does not
// decode — bad base64, a torn or over-cap binary graph, a format nobody
// knows — is a protocol error that leaves the session and its graph as
// they were.
func TestFragmentBinaryFormat(t *testing.T) {
	c, _ := startServer(t, server.Config{MaxGraphSize: 10})
	data := binaryData(t, fragGraph)
	fragment := func(format, data string) (*server.Response, error) {
		return c.Do(&server.Request{Cmd: "fragment", Format: format, Data: data, Owned: server.IDList{0, 2}})
	}
	holdsFragment := func(when string) {
		t.Helper()
		resp, err := c.Match(fragPattern, nil)
		if err != nil {
			t.Fatalf("%s: match: %v", when, err)
		}
		if !reflect.DeepEqual(resp.Matches, server.IDList{0}) {
			t.Fatalf("%s: match = %v, want [0]", when, resp.Matches)
		}
		if resp, err = c.Do(&server.Request{Cmd: "ping"}); err != nil || !resp.Fragment || resp.Nodes != 5 || resp.Owned != 2 {
			t.Fatalf("%s: ping = %+v, %v; want a fragment of 5 nodes owning 2", when, resp, err)
		}
	}

	resp, err := fragment("binary", data)
	if err != nil {
		t.Fatalf("binary fragment: %v", err)
	}
	if resp.Nodes != 5 || resp.Edges != 5 {
		t.Fatalf("binary fragment loaded %d/%d, want 5/5", resp.Nodes, resp.Edges)
	}
	holdsFragment("after a binary fragment")

	raw, _ := base64.StdEncoding.DecodeString(data)
	bad := []struct{ what, format, data string }{
		{"malformed base64", "binary", data[:len(data)/2] + "!" + data[len(data)/2:]},
		{"base64 of something else", "binary", base64.StdEncoding.EncodeToString([]byte(fragGraph))},
		{"torn binary graph", "binary", base64.StdEncoding.EncodeToString(raw[:len(raw)-3])},
		{"text sent as binary", "binary", fragGraph},
		{"unknown format", "yaml", data},
		{"over the size cap", "binary", binaryData(t, fragGraph+"e 4 0 follow\n")},
	}
	for _, b := range bad {
		for _, cmd := range []string{"fragment", "load"} {
			_, err := c.Do(&server.Request{Cmd: cmd, Format: b.format, Data: b.data, Owned: server.IDList{0}})
			var se *client.ServerError
			if !errors.As(err, &se) {
				t.Fatalf("%s with %s: %v, want a protocol error", cmd, b.what, err)
			}
			holdsFragment(cmd + " with " + b.what)
		}
	}

	// load takes the format too, and then the session is no fragment.
	if resp, err = c.Do(&server.Request{Cmd: "load", Format: "binary", Data: data}); err != nil || resp.Nodes != 5 || resp.Edges != 5 {
		t.Fatalf("binary load = %+v, %v", resp, err)
	}
	if resp, err = c.Match(fragPattern, nil); err != nil || !reflect.DeepEqual(resp.Matches, server.IDList{0, 1}) {
		t.Fatalf("match after binary load = %v, %v; want [0 1]", resp.Matches, err)
	}
}
