package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/server"
)

// mergeByMap is the merge the coordinator used before mergeRuns — every id
// into a set, the set sorted — kept as the reference: order and duplicates
// of the input cannot matter to it.
func mergeByMap(runs [][]graph.NodeID) []graph.NodeID {
	set := make(map[graph.NodeID]bool)
	for _, r := range runs {
		for _, v := range r {
			set[v] = true
		}
	}
	out := make([]graph.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestMergeRunsMatchesMapMerge: over 1…8 runs with empty runs, ids shared
// between runs and repeated inside one, the k-way merge equals the set
// merge. One run per case starts out unsorted and is sorted first, the way
// globalRun hands it over.
func TestMergeRunsMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var sawEmpty, sawOverlap bool
	for iter := 0; iter < 500; iter++ {
		k := 1 + rng.Intn(8)
		span := 1 + rng.Intn(200)
		runs := make([][]graph.NodeID, k)
		seen := make(map[graph.NodeID]bool)
		for i := range runs {
			if rng.Intn(4) == 0 {
				sawEmpty = true
				continue
			}
			for n := rng.Intn(60); n > 0; n-- {
				v := graph.NodeID(rng.Intn(span))
				sawOverlap = sawOverlap || seen[v]
				seen[v] = true
				runs[i] = append(runs[i], v)
			}
			if i > 0 {
				slices.Sort(runs[i])
			}
		}
		want := mergeByMap(runs)
		slices.Sort(runs[0])
		got := mergeRuns(runs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d, %d runs: mergeRuns = %v, map merge = %v", iter, k, got, want)
		}
	}
	if !sawEmpty || !sawOverlap {
		t.Fatalf("generator never produced an empty run (%v) or a shared id (%v)", sawEmpty, sawOverlap)
	}
	if got := mergeRuns(nil); got == nil || len(got) != 0 {
		t.Fatalf("mergeRuns(nil) = %v, want an empty non-nil list", got)
	}
}

// TestGlobalRunSortsUnsortedTranslation: a worker whose id mapping is not
// monotone — or whose reply is not ascending — still yields an ascending
// run, and an id outside the mapping is an error naming the worker.
func TestGlobalRunSortsUnsortedTranslation(t *testing.T) {
	w := &worker{id: 3}
	for _, gv := range []graph.NodeID{10, 20, 30, 5} {
		w.ids.add(gv)
	}
	run, err := w.globalRun([]int64{0, 2, 3})
	if err != nil || !reflect.DeepEqual(run, []graph.NodeID{5, 10, 30}) {
		t.Fatalf("globalRun = %v, %v; want [5 10 30]", run, err)
	}
	for _, bad := range []int64{4, -1} {
		if _, err := w.globalRun([]int64{0, bad}); err == nil || err.Error() !=
			fmt.Sprintf("cluster: worker 3 returned local node %d outside [0, 4)", bad) {
			t.Fatalf("globalRun with local id %d: err = %v", bad, err)
		}
	}
}

// extensionBatches extend the fragment holding twoIslands' second island
// with lower global ids, then give it new owned nodes behind them.
var extensionBatches = [][]server.UpdateSpec{
	{{Op: "addEdge", From: 45, To: 5, Label: "follow"}},
	{
		{Op: "addNode", Label: "person"},
		{Op: "addNode", Label: "person"},
		{Op: "addEdge", From: 60, To: 45, Label: "follow"},
		{Op: "addEdge", From: 60, To: 46, Label: "follow"},
		{Op: "addEdge", From: 61, To: 4, Label: "follow"},
		{Op: "addEdge", From: 61, To: 44, Label: "follow"},
		{Op: "addEdge", From: 46, To: 47, Label: "follow"},
	},
}

// TestFragmentExtendedWithLowerID is the differential case for a fragment
// whose id mapping stops being ascending: an update links the second
// island to the first, so the worker holding the second island appends
// lower global ids to its toGlobal, and a later batch gives it a new owned
// node behind them. Match, Watch and the watch's deltas must still equal
// single-process QMatch and come out ascending.
func TestFragmentExtendedWithLowerID(t *testing.T) {
	c := newEmbedded(t, twoIslands(t), 2, Config{D: 2})
	var far *worker
	for _, w := range c.workers {
		if w.ids.owns(45) && !w.ids.has(5) {
			far = w
		}
	}
	if far == nil {
		t.Fatal("no worker owns node 45 without holding node 5: the islands are not split across workers")
	}
	q := mustParse(t, "qgp\nn xo person *\nn z person\ne xo z follow >=2\n")
	if _, err := c.Watch("before", q); err != nil {
		t.Fatalf("Watch: %v", err)
	}
	before := globalAnswers(t, c.Graph(), q)

	var added, removed []int64
	for i, specs := range extensionBatches {
		res, err := c.Update(specs)
		if err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
		requireInducedCopies(t, c, fmt.Sprintf("batch %d", i))
		requireCovered(t, c, fmt.Sprintf("batch %d", i))
		for _, d := range res.Deltas {
			if d.Watch != "before" {
				t.Fatalf("batch %d: delta for unknown watch %q", i, d.Watch)
			}
			if !slices.IsSorted(d.Added) || !slices.IsSorted(d.Removed) {
				t.Fatalf("batch %d: delta not ascending: %+v", i, d)
			}
			added = append(added, d.Added...)
			removed = append(removed, d.Removed...)
		}
	}
	if slices.IsSorted(far.ids.toGlobal) {
		t.Fatalf("worker %d's toGlobal is still ascending (%v): the scenario did not happen", far.id, far.ids.toGlobal)
	}
	if !far.ids.owns(60) && !far.ids.owns(61) {
		t.Fatalf("worker %d was assigned neither new node", far.id)
	}

	want := globalAnswers(t, c.Graph(), q)
	res, err := c.Match(q)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	initial, err := c.Watch("after", q)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	for name, got := range map[string][]graph.NodeID{"Match": res.Matches, "Watch": initial} {
		if !reflect.DeepEqual(nodeIDs(got), nodeIDs(want)) {
			t.Errorf("%s after the extension = %v, single-process %v", name, got, want)
		}
	}
	// The deltas of the standing watch take the old answers to the new.
	set := make(map[graph.NodeID]bool)
	for _, v := range before {
		set[v] = true
	}
	for _, v := range removed {
		delete(set, graph.NodeID(v))
	}
	for _, v := range added {
		set[graph.NodeID(v)] = true
	}
	if folded := sortedSet(set); !reflect.DeepEqual(folded, nodeIDs(want)) {
		t.Errorf("old answers with the deltas folded in = %v, single-process %v", folded, want)
	}
}

func sortedSet(m map[graph.NodeID]bool) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var mergeSink []graph.NodeID

// BenchmarkMergeRuns merges an answer of 4 500 ids held by 2 and by 4
// workers — the size of one benchmark match op at the coordinator.
func BenchmarkMergeRuns(b *testing.B) {
	const ids = 4500
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("runs=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src := make([][]graph.NodeID, k)
			for v := graph.NodeID(0); v < ids; v++ {
				i := rng.Intn(k)
				src[i] = append(src[i], v)
			}
			runs := make([][]graph.NodeID, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(runs, src) // mergeRuns consumes the run headers
				mergeSink = mergeRuns(runs)
			}
		})
	}
}
