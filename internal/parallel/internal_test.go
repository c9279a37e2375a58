package parallel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestSplitChunks(t *testing.T) {
	mk := func(n int) []graph.NodeID {
		out := make([]graph.NodeID, n)
		for i := range out {
			out[i] = graph.NodeID(i)
		}
		return out
	}
	cases := []struct {
		n, threads, wantChunks int
	}{
		{0, 4, 1}, // empty input still yields one (empty) chunk
		{1, 4, 1}, // never more chunks than items
		{10, 1, 1},
		{10, 3, 3},
		{10, 4, 4},
		{9, 4, 3}, // ceil(9/4)=3 per chunk → 3 chunks
	}
	for _, c := range cases {
		chunks := splitChunks(mk(c.n), c.threads)
		if len(chunks) != c.wantChunks {
			t.Errorf("splitChunks(%d items, %d threads) = %d chunks, want %d",
				c.n, c.threads, len(chunks), c.wantChunks)
		}
		total := 0
		seen := map[graph.NodeID]bool{}
		for _, ch := range chunks {
			total += len(ch)
			for _, v := range ch {
				if seen[v] {
					t.Fatalf("node %d appears in two chunks", v)
				}
				seen[v] = true
			}
		}
		if total != c.n {
			t.Errorf("chunks cover %d of %d items", total, c.n)
		}
	}
}

func TestPatternHopsUnreachable(t *testing.T) {
	// Nodes unreachable from the focus (possible only for malformed inputs;
	// the public API validates first) are outside every Π(Q): they neither
	// panic nor count.
	p := core.NewPattern()
	p.AddNode("xo", "a")
	p.AddNode("b", "b")
	p.AddNode("orphan", "c")
	p.AddEdge("xo", "b", "r", core.Exists())
	if hops := RequiredHops(p); hops != 1 {
		t.Fatalf("RequiredHops = %d, want 1", hops)
	}
}
