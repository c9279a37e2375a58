package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// textSeeds are inputs the text fuzzer starts from: a small social graph,
// labels that need quoting, a header over the cap, a node before the
// header, an edge to a node that does not exist, a header promising more
// nodes than follow, a second header, and odd whitespace, a comment after
// a non-ASCII space and a non-ASCII label.
func textSeeds(t testing.TB) []string {
	social := New(0)
	for i := 0; i < 12; i++ {
		social.AddNode([]string{"person", "person", "person", "product"}[i%4])
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		social.AddEdge(NodeID(r.Intn(12)), NodeID(r.Intn(12)), []string{"follow", "like", "recom"}[r.Intn(3)])
	}
	social.Finalize()
	var buf bytes.Buffer
	if _, err := social.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return []string{
		buf.String(),
		"graph 2\nn 0 \"music club\"\nn 1 \"a \\\"quoted\\\" label\"\ne 0 1 \"likes a lot\"\ne 1 1 \"\"\n",
		"graph 3000000000\n",
		"n 0 person\ngraph 1\n",
		"graph 2\nn 0 a\nn 1 b\ne 0 5 r\n",
		"graph 5\nn 0 a\nn 1 b\n",
		"graph 2\nn 0 a\nn 1 b\ngraph 1\nn 0 c\n",
		"  graph\t1 \r\n\u00a0# comment \"\nn 0 caf\u00e9\ne 0 0 \"a b\"\n",
	}
}

// textCap is the size cap FuzzReadText reads under.
const textCap = 1 << 10

// FuzzReadText: the text reader faces the network (a load command carries
// this format). On any input it returns a graph or an error and never
// panics; it accepts what the append-and-sort reference accepts, building
// the same graph with a sound index; it refuses a header that declares
// more nodes than the cap; and a
// graph it accepts survives WriteTo → Read → WriteTo: the edge relation is
// kept, and from the second write on the text is a fixed point.
func FuzzReadText(f *testing.F) {
	for _, s := range textSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Read(strings.NewReader(in), textCap)
		ref, refErr := referenceRead(strings.NewReader(in), textCap)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Read: %v; the reference: %v", err, refErr)
		}
		if err == nil {
			if err := sameBuild(g, ref); err != nil {
				t.Fatalf("Read and the reference differ: %v", err)
			}
			if err := g.CheckIndex(); err != nil {
				t.Fatal(err)
			}
		}
		if fields := strings.Fields(in); err == nil && len(fields) > 1 && fields[0] == "graph" {
			if n, aerr := strconv.Atoi(fields[1]); aerr == nil && n > textCap {
				t.Fatalf("a header of %d nodes accepted under the cap %d", n, textCap)
			}
		}
		if err != nil {
			return
		}
		write := func(g *Graph) string {
			var buf bytes.Buffer
			if _, err := g.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		read := func(text string) *Graph {
			h, err := Read(strings.NewReader(text), math.MaxInt)
			if err != nil {
				t.Fatalf("re-reading %q: %v", text, err)
			}
			return h
		}
		once := write(g)
		again := read(once)
		if g.NumNodes() != again.NumNodes() || g.NumEdges() != again.NumEdges() {
			t.Fatalf("WriteTo → Read went from %d nodes and %d edges to %d and %d", g.NumNodes(), g.NumEdges(), again.NumNodes(), again.NumEdges())
		}
		for v := 0; v < g.NumNodes(); v++ {
			for _, e := range g.Out(NodeID(v)) {
				if l := again.LookupLabel(g.LabelName(e.Label)); !again.HasEdge(NodeID(v), e.To, l) {
					t.Fatalf("WriteTo → Read lost edge %d -%s-> %d", v, g.LabelName(e.Label), e.To)
				}
			}
		}
		if twice := write(again); write(read(twice)) != twice {
			t.Fatalf("WriteTo → Read → WriteTo is no fixed point from %q", twice)
		}
		if g.NumNodes() > 0 {
			if _, err := Read(strings.NewReader(once), g.NumNodes()-1); err == nil {
				t.Fatalf("a header of %d nodes accepted under the cap %d", g.NumNodes(), g.NumNodes()-1)
			}
		}
	})
}
