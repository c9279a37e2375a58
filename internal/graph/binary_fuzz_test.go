package graph

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// binarySeeds are encodings the fuzzer starts from: the graph
// store/corruption_test.go journals (nodes A–D; edges y, z, w left after
// its history), which is what a snapshot file holds; that encoding under
// the same three corruptions that test applies — a flipped byte, a
// truncation, a 4-byte chunk duplicated in place; parallel edges,
// self-loops and an isolated node; and TestReadBinaryErrors' garbage.
func binarySeeds(t testing.TB) [][]byte {
	encode := func(g *Graph) []byte {
		g.Finalize()
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	journaled := New(4)
	for _, l := range []string{"A", "B", "C", "D"} {
		journaled.AddNode(l)
	}
	journaled.AddEdge(1, 2, "y")
	journaled.AddEdge(2, 0, "z")
	journaled.AddEdge(3, 0, "w")
	pristine := encode(journaled)

	multi := New(4)
	for _, l := range []string{"person", "person", "", "lonely"} {
		multi.AddNode(l)
	}
	for _, l := range []string{"follow", "like", "follow"} {
		multi.AddEdge(0, 1, l)
		multi.AddEdge(2, 2, l)
	}
	multi.AddEdge(1, 0, "follow")

	seeds := [][]byte{pristine, encode(multi), encode(New(0)),
		nil, []byte("XXXX"), []byte("QGP1"), append([]byte("QGP1"), 0xff), append([]byte("QGP1"), 1, 2, 'a')}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		flipped := slices.Clone(pristine)
		flipped[r.Intn(len(flipped))] ^= byte(1 + r.Intn(255))
		at := 4 + r.Intn(len(pristine)-8)
		doubled := slices.Concat(pristine[:at+4], pristine[at:])
		seeds = append(seeds, flipped, pristine[:r.Intn(len(pristine))], doubled)
	}
	return seeds
}

// sameGraph reports whether two finalized graphs agree on every node's
// label (id and string) and on both adjacency rows, in order.
func sameGraph(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for i := 0; i < a.NumNodes(); i++ {
		v := NodeID(i)
		if a.NodeLabel(v) != b.NodeLabel(v) || a.NodeLabelName(v) != b.NodeLabelName(v) ||
			!slices.Equal(a.Out(v), b.Out(v)) || !slices.Equal(a.In(v), b.In(v)) {
			return false
		}
	}
	return true
}

// FuzzReadBinary: the binary reader faces the network (a fragment command
// carries this format) and the disk (snapshots). On any input it returns
// a graph or an error, never panics, and never builds a graph over the
// size cap; it accepts what the append-and-sort reference accepts,
// building the same graph; a graph it accepts has a sound index and survives
// WriteBinary → ReadBinary with node ids, labels and adjacency order
// intact; every strict prefix of a valid encoding is an error (all counts
// are declared up front, so a torn tail cannot pass for a smaller graph);
// and a valid encoding with one byte changed is an error or another
// sound graph.
func FuzzReadBinary(f *testing.F) {
	for _, s := range binarySeeds(f) {
		f.Add(s, uint16(3), uint16(0x0107))
	}
	const maxSize = 1 << 14
	f.Fuzz(func(t *testing.T, data []byte, cut, flip uint16) {
		g, err := ReadBinary(bytes.NewReader(data), maxSize)
		ref, refErr := referenceReadBinary(bytes.NewReader(data), maxSize)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ReadBinary: %v; the reference: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if err := sameBuild(g, ref); err != nil {
			t.Fatalf("ReadBinary and the reference differ: %v", err)
		}
		if g.Size() > maxSize {
			t.Fatalf("accepted a graph of size %d over the cap %d", g.Size(), maxSize)
		}
		if err := g.CheckIndex(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		again, err := ReadBinary(bytes.NewReader(enc), math.MaxInt)
		if err != nil {
			t.Fatalf("re-reading an accepted graph: %v", err)
		}
		if !sameGraph(g, again) {
			t.Fatal("WriteBinary → ReadBinary changed the graph")
		}
		if err := again.CheckIndex(); err != nil {
			t.Fatal(err)
		}
		n := int(cut) % len(enc)
		if _, err := ReadBinary(bytes.NewReader(enc[:n]), math.MaxInt); err == nil {
			t.Fatalf("accepted the first %d of %d bytes", n, len(enc))
		}
		enc[int(flip)%len(enc)] ^= byte(flip>>8) | 1
		if h, err := ReadBinary(bytes.NewReader(enc), maxSize); err == nil {
			if err := h.CheckIndex(); err != nil {
				t.Fatalf("after a flipped byte: %v", err)
			}
		}
	})
}

// TestReadBinaryCap: the cap is judged on the declared counts — the node
// count before any node is read, nodes plus edges before any edge is.
func TestReadBinaryCap(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 50, 200, 3)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(enc), g.Size()); err != nil {
		t.Fatalf("a graph exactly at the cap: %v", err)
	}
	for _, cap := range []int{g.Size() - 1, g.NumNodes(), g.NumNodes() - 1, 0} {
		if _, err := ReadBinary(bytes.NewReader(enc), cap); err == nil {
			t.Errorf("size %d accepted under cap %d", g.Size(), cap)
		}
	}
	// A header that declares 2^31 nodes and then ends: refused at the
	// count, with nothing allocated for it.
	huge := append([]byte("QGP1"), 0, 0x80, 0x80, 0x80, 0x80, 0x08)
	if _, err := ReadBinary(bytes.NewReader(huge), 1000); err == nil {
		t.Error("2^31 declared nodes accepted under cap 1000")
	}
}
