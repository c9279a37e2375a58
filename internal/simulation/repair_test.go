package simulation_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/simulation"
)

// repaired follows one pattern's candidate sets through a graph's
// versions the way a holder of simulation.Repair does: repair from
// whatever the last step left, all-empty sets included, and compute afresh
// only after the graph lost nodes.
type repaired struct {
	name  string
	p     *core.Pattern
	sets  []*bitset.Set
	empty bool // the last verdict was "no candidates": every set is empty

	repairs, fresh, emptied, refilled int
}

// newRepaired starts following p's sets at g's state.
func newRepaired(name string, g *graph.Graph, p *core.Pattern) *repaired {
	sets, ok := simulation.Candidates(g, p, false)
	return &repaired{name: name, p: p, sets: sets, empty: !ok}
}

// step brings the sets to g's current state and compares them with a fresh
// Candidates. canRepair is false when the graph lost nodes since the last
// step (a Rollback), which Repair's contract excludes.
func (f *repaired) step(t *testing.T, g *graph.Graph, touched []graph.NodeID, canRepair bool, what string) {
	t.Helper()
	want, wantOK := simulation.Candidates(g, f.p, false)
	ok := wantOK
	if canRepair {
		f.repairs++
		before := make([][]int, len(f.sets))
		for u := range f.sets {
			before[u] = f.sets[u].Slice()
		}
		var changed []simulation.Pair
		changed, ok = simulation.Repair(g, f.p, f.sets, touched, !f.empty)
		switch {
		case ok && f.empty:
			f.refilled++
			f.checkChanged(t, before, changed, what)
		case ok:
			f.checkChanged(t, before, changed, what)
		case !f.empty:
			f.emptied++
		}
	} else {
		f.fresh++
		f.sets, ok = simulation.Candidates(g, f.p, false)
	}
	f.empty = !ok
	if ok != wantOK {
		t.Fatalf("%s, %s: repaired sets non-empty = %v, fresh Candidates says %v\n%s", what, f.name, ok, wantOK, f.p)
	}
	for u := range want {
		if f.sets[u].Len() != g.NumNodes() {
			t.Fatalf("%s, %s: C(%s) has capacity %d on a graph of %d nodes", what, f.name, f.p.Nodes[u].Name, f.sets[u].Len(), g.NumNodes())
		}
		if fmt.Sprint(f.sets[u].Slice()) != fmt.Sprint(want[u].Slice()) {
			t.Fatalf("%s, %s: repaired C(%s) = %v, fresh = %v\ntouched %v\n%s",
				what, f.name, f.p.Nodes[u].Name, f.sets[u].Slice(), want[u].Slice(), touched, f.p)
		}
	}
}

// checkChanged: every pair whose membership differs between before and the
// repaired sets is among the changed pairs Repair reported.
func (f *repaired) checkChanged(t *testing.T, before [][]int, changed []simulation.Pair, what string) {
	t.Helper()
	reported := make(map[simulation.Pair]bool, len(changed))
	for _, c := range changed {
		reported[c] = true
	}
	for u := range f.sets {
		was := make(map[int]bool, len(before[u]))
		for _, v := range before[u] {
			was[v] = true
			if !f.sets[u].Contains(v) && !reported[simulation.Pair{U: u, V: graph.NodeID(v)}] {
				t.Fatalf("%s, %s: %d left C(%s) unreported", what, f.name, v, f.p.Nodes[u].Name)
			}
		}
		for _, v := range f.sets[u].Slice() {
			if !was[v] && !reported[simulation.Pair{U: u, V: graph.NodeID(v)}] {
				t.Fatalf("%s, %s: %d entered C(%s) unreported", what, f.name, v, f.p.Nodes[u].Name)
			}
		}
	}
}

func parse(t testing.TB, dsl string) *core.Pattern {
	t.Helper()
	q, err := core.Parse(dsl)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// repairPatterns are the positives a worker binds for the benchmark mix —
// Π(Q) of each mix pattern and negation's Π(Q+e) — the two patterns over
// labels the churn interns mid-stream, and generated patterns, trees and
// cycles, over g.
func repairPatterns(t testing.TB, g *graph.Graph) []*repaired {
	var out []*repaired
	for _, m := range fixture.Mix {
		q := parse(t, m.DSL)
		pi, _ := q.Pi()
		out = append(out, newRepaired(m.Name, g, pi))
		for _, ei := range q.NegatedEdges() {
			pp, _ := q.PiPlus(ei)
			out = append(out, newRepaired(fmt.Sprintf("%s+e%d", m.Name, ei), g, pp))
		}
	}
	for i, dsl := range fixture.ChurnLate {
		out = append(out, newRepaired(fmt.Sprintf("late%d", i), g, parse(t, dsl)))
	}
	for _, cfg := range []gen.PatternConfig{
		{Nodes: 3, Edges: 2, RatioBP: 3000, Seed: 1},
		{Nodes: 4, Edges: 6, RatioBP: 3000, NegEdges: 1, Seed: 2},
		{Nodes: 5, Edges: 7, RatioBP: 9000, Seed: 4},
	} {
		for i, p := range fixture.Patterns(g, cfg, 4) {
			pi, _ := p.Pi()
			out = append(out, newRepaired(fmt.Sprintf("gen%d.%d", cfg.Seed, i), g, pi))
		}
	}
	return out
}

// TestRepairEqualsCandidates: sets carried by Repair through 320 churn
// batches equal a fresh Candidates after every one — edge inserts and
// deletes, births, tombstones, labels interned mid-stream, a drained and
// refilled label class, and rolled-back batches.
func TestRepairEqualsCandidates(t *testing.T) {
	const rounds = 320
	vg := graph.NewVersioned(gen.Social(gen.DefaultSocial(300, 3)))
	g := vg.Graph()
	follow := repairPatterns(t, g)
	cycles := 0
	for _, f := range follow {
		if cyclic(f.p) {
			cycles++
		}
	}
	if cycles == 0 {
		t.Fatal("no generated pattern had a cycle")
	}

	churn := fixture.NewChurn(7)
	rollbacks := 0
	for round := 0; round < rounds; round++ {
		old, touched, err := vg.Apply(churn.Next(g))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, f := range follow {
			f.step(t, g, touched, true, fmt.Sprintf("round %d", round))
		}
		if round%9 == 5 {
			// The batch is withdrawn. Its touched set covers the rows the
			// rollback restores; nodes it created are gone again, and
			// sets grown over them cannot be shrunk back.
			grew := g.NumNodes() > old.NumNodes()
			if err := vg.Rollback(old); err != nil {
				t.Fatal(err)
			}
			rollbacks++
			kept := touched[:0:0]
			for _, v := range touched {
				if int(v) < g.NumNodes() {
					kept = append(kept, v)
				}
			}
			for _, f := range follow {
				f.step(t, g, kept, !grew, fmt.Sprintf("round %d rolled back", round))
			}
		}
	}

	var repairs, emptied, refilled, idle int
	for _, f := range follow {
		repairs += f.repairs
		emptied += f.emptied
		refilled += f.refilled
		if f.repairs == 0 {
			idle++ // a generated pattern may have no candidates throughout
			if !strings.HasPrefix(f.name, "gen") {
				t.Errorf("%s was never repaired", f.name)
			}
		}
	}
	if emptied == 0 || refilled == 0 || rollbacks < 20 || idle > 3 {
		t.Fatalf("coverage: %d repairs, %d emptied, %d refilled, %d rollbacks, %d patterns never repaired", repairs, emptied, refilled, rollbacks, idle)
	}
	t.Logf("%d repairs, %d emptied, %d refilled, %d rollbacks", repairs, emptied, refilled, rollbacks)
}

// decodeRepairCase turns fuzz bytes into a small two-label graph, a
// pattern over it and a batch stream: the instance space of
// TestWorklistEqualsSweepOnRandomInstances, plus churn.
func decodeRepairCase(data []byte) (*graph.Graph, *core.Pattern, [][]graph.Mutation) {
	seed := int64(0)
	if len(data) >= 8 {
		seed = int64(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	r := rand.New(rand.NewSource(seed))
	nodeLabels := []string{"a", "b"}
	edgeLabels := []string{"R", "S"}
	n := 4 + r.Intn(12)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(nodeLabels[r.Intn(2)])
	}
	for i := r.Intn(4 * n); i > 0; i-- {
		g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), edgeLabels[r.Intn(2)])
	}
	g.Finalize()

	p := core.NewPattern()
	k := 1 + r.Intn(4)
	for i := 0; i < k; i++ {
		p.AddNode(fmt.Sprintf("u%d", i), nodeLabels[r.Intn(2)])
	}
	for i := 1; i < k; i++ {
		p.AddEdge(fmt.Sprintf("u%d", r.Intn(i)), fmt.Sprintf("u%d", i), edgeLabels[r.Intn(2)], core.Exists())
	}
	for extra := r.Intn(3); extra > 0; extra-- {
		// a == b closes a self-loop: one pattern edge that is both an out-
		// and an in-condition of its node.
		p.AddEdge(fmt.Sprintf("u%d", r.Intn(k)), fmt.Sprintf("u%d", r.Intn(k)), edgeLabels[r.Intn(2)], core.Exists())
	}

	// The remaining bytes are the stream: three per op, batches closed by
	// an op byte with the high bit set.
	var batches [][]graph.Mutation
	var batch []graph.Mutation
	for ; len(data) >= 3; data = data[3:] {
		from, to := graph.NodeID(int(data[1])%n), graph.NodeID(int(data[2])%n)
		switch data[0] & 7 {
		case 0:
			batch = append(batch, graph.Mutation{Op: graph.MutAddNode, Label: nodeLabels[int(data[1])%2]})
			n++
		case 1:
			batch = append(batch, graph.Mutation{Op: graph.MutRemoveNode, From: from})
		case 2, 3:
			batch = append(batch, graph.Mutation{Op: graph.MutRemoveEdge, From: from, To: to, Label: edgeLabels[int(data[0]>>3)%2]})
		default:
			batch = append(batch, graph.Mutation{Op: graph.MutAddEdge, From: from, To: to, Label: edgeLabels[int(data[0]>>3)%2]})
		}
		if data[0]&0x80 != 0 {
			batches, batch = append(batches, batch), nil
		}
	}
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return g, p, batches
}

// FuzzRepair: on arbitrary small instances and streams, Repair agrees with
// Candidates after every batch, starting from whatever the last batch
// left. Seeds 0–23 are random streams; the seeds after them are the first
// instances past 1 000 that start with no candidates and gain some later,
// so a Repair from all-empty sets is always among the seeds.
func FuzzRepair(f *testing.F) {
	stream := func(seed uint64) []byte {
		r := rand.New(rand.NewSource(int64(seed)))
		data := binary.LittleEndian.AppendUint64(nil, seed)
		for i := 6 + r.Intn(40); i > 0; i-- {
			op := byte(r.Intn(256))
			if r.Intn(3) > 0 {
				op &^= 0x80
			}
			data = append(data, op, byte(r.Intn(256)), byte(r.Intn(256)))
		}
		return data
	}
	for seed := uint64(0); seed < 24; seed++ {
		f.Add(stream(seed))
	}
	for seed, found := uint64(1000), 0; found < 8; seed++ {
		if data := stream(seed); startsEmptyThenFills(data) {
			f.Add(data)
			found++
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, batches := decodeRepairCase(data)
		vg := graph.NewVersioned(g)
		follow := newRepaired("fuzz", g, p)
		for i, batch := range batches {
			_, touched, err := vg.Apply(batch)
			if err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			follow.step(t, g, touched, true, fmt.Sprintf("batch %d", i))
		}
	})
}

// startsEmptyThenFills reports whether the decoded instance has no
// candidates before its first batch and some after a later one.
func startsEmptyThenFills(data []byte) bool {
	g, p, batches := decodeRepairCase(data)
	if _, ok := simulation.Candidates(g, p, false); ok {
		return false
	}
	vg := graph.NewVersioned(g)
	for _, batch := range batches {
		if _, _, err := vg.Apply(batch); err != nil {
			return false
		}
		if _, ok := simulation.Candidates(g, p, false); ok {
			return true
		}
	}
	return false
}
