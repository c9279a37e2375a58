package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

// wireGoldenFile holds every wireCases value as json.Marshal wrote it at
// 6ecd0ac, the last build whose id lists and batches were json.Marshalers:
// one "name<TAB>bytes" line per case. The request line has since lost the
// affected set the coordinator no longer sends; every other byte is as
// written then.
const wireGoldenFile = "testdata/wire-6ecd0ac.golden"

type wireCase struct {
	name string
	v    any
}

// wireCases are what the golden pins: the coordinator's combined update
// request (packed batch with a multi-byte label, owned), an answer of
// 3 000 ids, a worker reply with 8 deltas, the empty and nil lists inside
// a reply, and id lists and batches on their own.
func wireCases() []wireCase {
	req := &server.Request{ID: 7, Cmd: "update",
		Updates: server.Batch{
			{Op: "addNode", Label: "Person"},
			{Op: "addEdge", From: 4147, To: 12, Label: "follow"},
			{Op: "addEdge", From: 3, To: 4147, Label: "läuft→追随"},
			{Op: "removeEdge", From: 97, To: 3911, Label: "follow"},
			{Op: "removeNode", From: 2210},
		},
		Owned: server.IDList{4147},
	}
	answer := &server.Response{ID: 1, OK: true, Total: 3000, ElapsedMS: 1.25, Matches: make(server.IDList, 3000)}
	for i := range answer.Matches {
		answer.Matches[i] = int64(2 * i)
	}
	deltas := &server.Response{ID: 7, OK: true, Nodes: 4147, Edges: 78011}
	for i := 0; i < 8; i++ {
		d := server.WatchDelta{Watch: fmt.Sprintf("w%d", i), Affected: 6}
		if i%2 == 0 {
			d.Added = server.IDList{1207}
			d.Removed = server.IDList{2210, 2987}
		}
		deltas.Deltas = append(deltas.Deltas, d)
	}
	empty := &server.Response{ID: 3, OK: true, Matches: server.IDList{}, Identified: nil,
		Deltas: []server.WatchDelta{{Watch: "w", Added: server.IDList{}}, {Watch: "v", Affected: 2}}}
	return []wireCase{
		{"request", req},
		{"answer3000", answer},
		{"deltas8", deltas},
		{"empty", empty},
		{"idlist-nil", server.IDList(nil)},
		{"idlist-empty", server.IDList{}},
		{"idlist-wide", server.IDList{5, -3, 1 << 40, math.MinInt64, math.MaxInt64, 0}},
		{"batch-nil", server.Batch(nil)},
		{"batch-empty-label", server.Batch{{Op: "addEdge"}}},
	}
}

// readWireGolden returns the golden file's lines by case name.
func readWireGolden(t testing.TB) map[string]string {
	t.Helper()
	data, err := os.ReadFile(wireGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, enc, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("%s: malformed line %q", wireGoldenFile, line)
		}
		golden[name] = enc
	}
	return golden
}

// TestWireBytesUnchanged: not one wire byte moved when IDList and Batch
// became encoding.TextMarshalers. Each case encodes as it did at 6ecd0ac —
// through json.Marshal and through the json.Encoder client and host write
// with — and decodes back to a value that encodes the same again.
func TestWireBytesUnchanged(t *testing.T) {
	golden := readWireGolden(t)
	cases := wireCases()
	if len(golden) != len(cases) {
		t.Errorf("%s holds %d cases, the test %d", wireGoldenFile, len(golden), len(cases))
	}
	for _, c := range cases {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := golden[c.name]; string(got) != want {
			t.Errorf("%s encodes as\n%s\nwant, as at 6ecd0ac,\n%s", c.name, got, want)
		}
		var line bytes.Buffer
		if err := json.NewEncoder(&line).Encode(c.v); err != nil || line.String() != string(got)+"\n" {
			t.Errorf("%s through a json.Encoder: %q (%v), want the json.Marshal bytes and a newline", c.name, line.String(), err)
		}
		back := reflect.New(reflect.TypeOf(c.v))
		if err := json.Unmarshal(got, back.Interface()); err != nil {
			t.Fatalf("%s: decode %s: %v", c.name, got, err)
		}
		if again, err := json.Marshal(back.Elem().Interface()); err != nil || string(again) != string(got) {
			t.Errorf("%s decoded and re-encoded as %s (%v), want %s", c.name, again, err, got)
		}
	}
}
