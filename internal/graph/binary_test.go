package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := buildTriangle(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(&buf, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: got %d/%d want %d/%d",
			h.NumNodes(), h.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	follow := h.LookupLabel("follow")
	if follow == NoLabel || !h.HasEdge(0, 1, follow) {
		t.Fatal("binary round trip lost edge 0->1 follow")
	}
}

// Property: binary round trip preserves the exact labeled edge relation
// (same label ids: the binary format serializes the interner).
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(30), r.Intn(80), 1+r.Intn(5))
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			return false
		}
		h, err := ReadBinary(&buf, math.MaxInt)
		if err != nil {
			return false
		}
		if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			if g.NodeLabel(NodeID(v)) != h.NodeLabel(NodeID(v)) {
				return false
			}
			ge, he := g.Out(NodeID(v)), h.Out(NodeID(v))
			if len(ge) != len(he) {
				return false
			}
			for i := range ge {
				if ge[i] != he[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := randomGraph(r, 500, 2000, 5)
	var text, bin bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= text.Len() {
		t.Fatalf("binary (%d bytes) not smaller than text (%d bytes)", bin.Len(), text.Len())
	}
}

func TestReadBinaryErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("QGP1"),                    // truncated after magic
		append([]byte("QGP1"), 0xff),      // bad varint
		append([]byte("QGP1"), 1, 2, 'a'), // truncated label
	}
	for i, in := range cases {
		if _, err := ReadBinary(bytes.NewReader(in), math.MaxInt); err == nil {
			t.Errorf("case %d: ReadBinary succeeded on garbage", i)
		}
	}

	// Out-of-range edge.
	g := New(1)
	g.AddNode("x")
	g.Finalize()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Append a fake edge count region by corrupting the tail: simplest is
	// to truncate mid-stream and check the error paths fire.
	if _, err := ReadBinary(bytes.NewReader(raw[:len(raw)-1]), math.MaxInt); err == nil {
		// A 1-node 0-edge graph's last byte is the edge count; dropping it
		// must fail.
		t.Error("truncated stream accepted")
	}
	if !strings.Contains("x", "x") {
		t.Fatal("sanity")
	}
}

func TestReadAuto(t *testing.T) {
	g := buildTriangle(t)
	var text, bin bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"text": &text, "binary": &bin} {
		h, err := ReadAuto(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}
