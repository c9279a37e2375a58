package parallel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

func TestRequiredHops(t *testing.T) {
	if got := RequiredHops(fixture.Q2()); got != 2 {
		// Q2: radius 2; the ratio edge (=100%) leaves the focus, 0+1=1 < 2.
		t.Errorf("RequiredHops(Q2) = %d, want 2", got)
	}
	if got := RequiredHops(fixture.Q3(2)); got != 2 {
		t.Errorf("RequiredHops(Q3) = %d, want 2", got)
	}
	// A ratio edge two hops out forces an extra hop.
	p := core.NewPattern()
	p.AddNode("xo", "a")
	p.AddNode("b", "b")
	p.AddNode("c", "c")
	p.AddEdge("xo", "b", "r", core.Exists())
	p.AddEdge("b", "c", "s", core.RatioPercent(core.GE, 50))
	if got := RequiredHops(p); got != 2 {
		t.Errorf("RequiredHops = %d, want 2 (dist(b)+1)", got)
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
