package dynamic

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

// cycleText is the follow 2-cycle, a searched pattern, as a client may
// write it: its canonical text drops the ">=1"s.
const cycleText = "qgp\nn xo person *\nn z person\ne xo z follow >=1\ne z xo follow >=1\n"

// storeCounts reads a registry's bound instruments: built and live.
func storeCounts(reg *obs.Registry) (built, live int64) {
	snap := reg.Snapshot()
	return snap.Counters["server.match.bound_built"], snap.Gauges["server.match.bounds_live"]
}

// A read of a watched pattern finds the watch's bound whatever its text's
// spelling: the store keys both by the canonical text.
func TestReadOfWatchedPatternSharesBound(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEngine(gen.Social(gen.DefaultSocial(60, 3)), nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := core.Parse(cycleText)
	if err != nil {
		t.Fatal(err)
	}
	if q.String() == cycleText {
		t.Fatal("the read's text is already canonical; the test needs one that is not")
	}
	if _, err := e.Watch("cycle", q); err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{cycleText, q.String(), cycleText} {
		if _, err := e.Bound(text); err != nil {
			t.Fatal(err)
		}
	}
	if built, live := storeCounts(reg); built != 1 || live != 1 {
		t.Fatalf("bound_built %d, bounds_live %d; want 1 and 1", built, live)
	}
}

// A searched watch pins the bound it binds before the cap on unpinned
// bounds is counted: a session already holding the cap's worth of read
// bounds keeps every one of them when the watch comes.
func TestSearchedWatchEvictsNoReadBound(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEngine(gen.Social(gen.DefaultSocial(60, 3)), nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	read := func(k int) string {
		return fmt.Sprintf("qgp\nn xo person *\nn z person\ne xo z follow >=%d\n", k+2)
	}
	for k := 0; k < maxBounds; k++ {
		if _, err := e.Bound(read(k)); err != nil {
			t.Fatal(err)
		}
	}
	q, err := core.Parse(cycleText)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Watch("cycle", q); err != nil {
		t.Fatal(err)
	}
	built, live := storeCounts(reg)
	if built != maxBounds+1 || live != maxBounds+1 {
		t.Fatalf("bound_built %d, bounds_live %d; want %d and %d", built, live, maxBounds+1, maxBounds+1)
	}
	for k := 0; k < maxBounds; k++ {
		if _, err := e.Bound(read(k)); err != nil {
			t.Fatal(err)
		}
	}
	if again, _ := storeCounts(reg); again != built {
		t.Fatalf("reading the %d bounds again built %d: the watch evicted some", maxBounds, again-built)
	}
}
