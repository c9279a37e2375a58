package graph

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := New(3)
	a := g.AddNode("person")
	b := g.AddNode("person")
	c := g.AddNode("product")
	g.AddEdge(a, b, "follow")
	g.AddEdge(b, c, "buy")
	g.AddEdge(a, c, "buy")
	g.Finalize()
	return g
}

func TestBasicCounts(t *testing.T) {
	g := buildTriangle(t)
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.Size() != 6 {
		t.Fatalf("Size = %d, want 6", g.Size())
	}
}

func TestNodeLabels(t *testing.T) {
	g := buildTriangle(t)
	if got := g.NodeLabelName(0); got != "person" {
		t.Errorf("node 0 label = %q, want person", got)
	}
	if got := g.NodeLabelName(2); got != "product" {
		t.Errorf("node 2 label = %q, want product", got)
	}
	persons := g.NodesByLabelName("person")
	if len(persons) != 2 {
		t.Errorf("persons = %v, want 2 nodes", persons)
	}
	if got := g.NodesByLabelName("absent"); got != nil {
		t.Errorf("absent label returned %v", got)
	}
}

func TestOutByLabel(t *testing.T) {
	g := buildTriangle(t)
	buy := g.LookupLabel("buy")
	es := g.OutByLabel(0, buy)
	if len(es) != 1 || es[0].To != 2 {
		t.Fatalf("OutByLabel(0, buy) = %v, want [{2 buy}]", es)
	}
	if n := g.CountOut(0, buy); n != 1 {
		t.Fatalf("CountOut(0, buy) = %d, want 1", n)
	}
	follow := g.LookupLabel("follow")
	if n := g.CountOut(2, follow); n != 0 {
		t.Fatalf("CountOut(2, follow) = %d, want 0", n)
	}
}

func TestInByLabel(t *testing.T) {
	g := buildTriangle(t)
	buy := g.LookupLabel("buy")
	es := g.InByLabel(2, buy)
	if len(es) != 2 {
		t.Fatalf("InByLabel(2, buy) = %v, want 2 edges", es)
	}
}

func TestHasEdge(t *testing.T) {
	g := buildTriangle(t)
	follow := g.LookupLabel("follow")
	buy := g.LookupLabel("buy")
	if !g.HasEdge(0, 1, follow) {
		t.Error("expected edge 0->1 follow")
	}
	if g.HasEdge(1, 0, follow) {
		t.Error("unexpected reverse edge 1->0 follow")
	}
	if g.HasEdge(0, 1, buy) {
		t.Error("unexpected edge 0->1 buy")
	}
}

func TestDuplicateEdgesRemoved(t *testing.T) {
	g := New(2)
	a := g.AddNode("x")
	b := g.AddNode("y")
	g.AddEdge(a, b, "r")
	g.AddEdge(a, b, "r")
	g.AddEdge(a, b, "s")
	g.Finalize()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 after dedup", g.NumEdges())
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	g := buildTriangle(t)
	before := g.NumEdges()
	g.Finalize()
	g.Finalize()
	if g.NumEdges() != before {
		t.Fatalf("edge count changed across Finalize: %d -> %d", before, g.NumEdges())
	}
}

func TestNeighborhood(t *testing.T) {
	// Path 0 -> 1 -> 2 -> 3; neighborhoods are undirected.
	g := New(4)
	for i := 0; i < 4; i++ {
		g.AddNode("n")
	}
	g.AddEdge(0, 1, "r")
	g.AddEdge(1, 2, "r")
	g.AddEdge(2, 3, "r")
	g.Finalize()

	cases := []struct {
		v    NodeID
		d    int
		want []NodeID
	}{
		{0, 0, []NodeID{0}},
		{0, 1, []NodeID{0, 1}},
		{0, 2, []NodeID{0, 1, 2}},
		{1, 1, []NodeID{0, 1, 2}},
		{3, 2, []NodeID{1, 2, 3}},
		{0, 10, []NodeID{0, 1, 2, 3}},
	}
	for _, c := range cases {
		got := g.Neighborhood(c.v, c.d)
		if len(got) != len(c.want) {
			t.Errorf("Neighborhood(%d,%d) = %v, want %v", c.v, c.d, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Neighborhood(%d,%d) = %v, want %v", c.v, c.d, got, c.want)
				break
			}
		}
	}
}

func TestInduced(t *testing.T) {
	g := buildTriangle(t)
	sub, toGlobal := g.Induced([]NodeID{0, 2})
	if sub.NumNodes() != 2 {
		t.Fatalf("induced nodes = %d, want 2", sub.NumNodes())
	}
	if sub.NumEdges() != 1 {
		t.Fatalf("induced edges = %d, want 1 (the buy edge)", sub.NumEdges())
	}
	if toGlobal[0] != 0 || toGlobal[1] != 2 {
		t.Fatalf("toGlobal = %v, want [0 2]", toGlobal)
	}
	buy := sub.LookupLabel("buy")
	if buy == NoLabel || !sub.HasEdge(0, 1, buy) {
		t.Fatal("induced subgraph lost the buy edge")
	}
}

func TestInducedDuplicates(t *testing.T) {
	g := buildTriangle(t)
	sub, toGlobal := g.Induced([]NodeID{1, 1, 2, 2})
	if sub.NumNodes() != 2 || len(toGlobal) != 2 {
		t.Fatalf("induced with duplicates: nodes=%d map=%v", sub.NumNodes(), toGlobal)
	}
}

func TestRoundTripIO(t *testing.T) {
	g := buildTriangle(t)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := Read(&buf, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: got %d/%d want %d/%d",
			h.NumNodes(), h.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	follow := h.LookupLabel("follow")
	if !h.HasEdge(0, 1, follow) {
		t.Fatal("round trip lost edge 0->1 follow")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"n 0 person",
		"graph x",
		"graph 2\nn 1 person",
		"graph 2\nn 0 a\nn 1 b\ne 0 5 r",
		"graph 1\nz 0",
		"graph 5\nn 0 a\nn 1 b",
		"graph 2\nn 0 a\nn 1 b\ngraph 1\nn 0 c",
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in), math.MaxInt); err == nil {
			t.Errorf("Read(%q) succeeded, want error", in)
		}
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	in := "# a comment\ngraph 1\n\nn 0 person\n"
	g, err := Read(strings.NewReader(in), math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestStats(t *testing.T) {
	g := buildTriangle(t)
	s := g.ComputeStats()
	if s.Nodes != 3 || s.Edges != 3 || s.NodeLabels != 2 || s.MaxOutDeg != 2 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.AvgDeg != 1.0 {
		t.Fatalf("AvgDeg = %f, want 1.0", s.AvgDeg)
	}
	if !strings.Contains(s.String(), "|V|=3") {
		t.Fatalf("Stats.String() = %q", s.String())
	}
}

// randomGraph builds a random labeled graph for property tests.
func randomGraph(r *rand.Rand, n, m, labels int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a' + r.Intn(labels))))
	}
	for i := 0; i < m; i++ {
		g.AddEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)), string(rune('A'+r.Intn(labels))))
	}
	g.Finalize()
	return g
}

// Property: serialization round-trips preserve the exact edge relation.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(20), r.Intn(40), 1+r.Intn(4))
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return false
		}
		h, err := Read(&buf, math.MaxInt)
		if err != nil {
			return false
		}
		if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			if g.NodeLabelName(NodeID(v)) != h.NodeLabelName(NodeID(v)) {
				return false
			}
			// Interning order differs between g and h, so adjacency sort
			// order can differ; compare as name-keyed sets.
			key := func(gr *Graph, e Edge) string {
				return gr.LabelName(e.Label) + "\x00" + string(rune(e.To))
			}
			var gk, hk []string
			for _, e := range g.Out(NodeID(v)) {
				gk = append(gk, key(g, e))
			}
			for _, e := range h.Out(NodeID(v)) {
				hk = append(hk, key(h, e))
			}
			if len(gk) != len(hk) {
				return false
			}
			sort.Strings(gk)
			sort.Strings(hk)
			for i := range gk {
				if gk[i] != hk[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: CountOut(v, l) equals len(OutByLabel(v, l)) for every v, l.
func TestQuickCountOutConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(15), r.Intn(60), 1+r.Intn(3))
		for v := 0; v < g.NumNodes(); v++ {
			for l := LabelID(0); l < LabelID(g.Labels()); l++ {
				if g.CountOut(NodeID(v), l) != len(g.OutByLabel(NodeID(v), l)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: in- and out-adjacency describe the same edge multiset.
func TestQuickInOutDual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 2+r.Intn(15), r.Intn(60), 1+r.Intn(3))
		type triple struct {
			from, to NodeID
			l        LabelID
		}
		var outs, ins []triple
		for v := 0; v < g.NumNodes(); v++ {
			for _, e := range g.Out(NodeID(v)) {
				outs = append(outs, triple{NodeID(v), e.To, e.Label})
			}
			for _, e := range g.In(NodeID(v)) {
				ins = append(ins, triple{e.To, NodeID(v), e.Label})
			}
		}
		less := func(s []triple) func(i, j int) bool {
			return func(i, j int) bool {
				if s[i].from != s[j].from {
					return s[i].from < s[j].from
				}
				if s[i].to != s[j].to {
					return s[i].to < s[j].to
				}
				return s[i].l < s[j].l
			}
		}
		sort.Slice(outs, less(outs))
		sort.Slice(ins, less(ins))
		if len(outs) != len(ins) {
			return false
		}
		for i := range outs {
			if outs[i] != ins[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInternerReuse(t *testing.T) {
	var in Interner
	a := in.Intern("x")
	b := in.Intern("x")
	if a != b {
		t.Fatal("interner returned different ids for same string")
	}
	if in.Lookup("y") != NoLabel {
		t.Fatal("Lookup of unknown label should be NoLabel")
	}
	if in.Name(a) != "x" {
		t.Fatal("Name mismatch")
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d, want 1", in.Len())
	}
}
