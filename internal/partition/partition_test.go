package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestAssignMKPBasic(t *testing.T) {
	items := []Item{
		{ID: 0, Weight: 5, Prefer: -1},
		{ID: 1, Weight: 3, Prefer: -1},
		{ID: 2, Weight: 4, Prefer: -1},
	}
	got := AssignMKP(items, []int{8, 5})
	// LPT order 5,4,3: 5→bin0 (rem 3), 4→bin1 (rem 1), 3→bin0 (rem 0).
	loads := []int{0, 0}
	for i, bin := range got {
		if bin < 0 {
			t.Fatalf("item %d unassigned: %v", i, got)
		}
		loads[bin] += items[i].Weight
	}
	if loads[0] != 8 || loads[1] != 4 {
		t.Fatalf("loads = %v, want [8 4]", loads)
	}
}

func TestAssignMKPPrefersHome(t *testing.T) {
	items := []Item{{ID: 0, Weight: 2, Prefer: 1}}
	got := AssignMKP(items, []int{100, 10})
	if got[0] != 1 {
		t.Fatalf("preferred bin ignored: %v", got)
	}
	// When the preferred bin is full, fall back to the roomiest.
	got = AssignMKP([]Item{{ID: 0, Weight: 20, Prefer: 1}}, []int{100, 10})
	if got[0] != 0 {
		t.Fatalf("fallback bin = %d, want 0", got[0])
	}
	// When nothing fits, report -1.
	got = AssignMKP([]Item{{ID: 0, Weight: 200, Prefer: -1}}, []int{100, 10})
	if got[0] != -1 {
		t.Fatalf("infeasible item assigned to %d", got[0])
	}
}

// Property: AssignMKP never overfills a bin.
func TestQuickMKPCapacity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nBins := 1 + r.Intn(6)
		caps := make([]int, nBins)
		for i := range caps {
			caps[i] = r.Intn(50)
		}
		items := make([]Item, r.Intn(30))
		for i := range items {
			items[i] = Item{ID: i, Weight: 1 + r.Intn(20), Prefer: r.Intn(nBins+1) - 1}
		}
		got := AssignMKP(items, caps)
		loads := make([]int, nBins)
		for i, bin := range got {
			if bin >= nBins {
				return false
			}
			if bin >= 0 {
				loads[bin] += items[i].Weight
			}
		}
		for b := range loads {
			if loads[b] > caps[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDParInvariantsSocial(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(800, 3))
	for _, n := range []int{1, 2, 4} {
		for _, d := range []int{1, 2} {
			p, err := DPar(g, Config{Workers: n, D: d})
			if err != nil {
				t.Fatalf("DPar(n=%d,d=%d): %v", n, d, err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("DPar(n=%d,d=%d) invariants: %v", n, d, err)
			}
		}
	}
}

func TestDParInvariantsSmallWorld(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{Nodes: 600, Edges: 1500, Seed: 9})
	p, err := DPar(g, Config{Workers: 3, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDParSingleWorker(t *testing.T) {
	g := gen.Knowledge(gen.DefaultKnowledge(300, 1))
	p, err := DPar(g, Config{Workers: 1, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fragments) != 1 {
		t.Fatalf("fragments = %d", len(p.Fragments))
	}
	f := p.Fragments[0]
	if len(f.Owned) != g.NumNodes() {
		t.Fatalf("single worker owns %d of %d nodes", len(f.Owned), g.NumNodes())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDParErrors(t *testing.T) {
	g := gen.Knowledge(gen.DefaultKnowledge(50, 1))
	if _, err := DPar(g, Config{Workers: 0, D: 1}); err == nil {
		t.Error("Workers=0 accepted")
	}
	if _, err := DPar(g, Config{Workers: 2, D: -1}); err == nil {
		t.Error("negative D accepted")
	}
}

func TestDParEmptyGraph(t *testing.T) {
	g := graph.New(0)
	g.Finalize()
	p, err := DPar(g, Config{Workers: 3, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDParD0(t *testing.T) {
	// d=0 preserves nothing beyond the node itself: base partition owns
	// everything in place.
	g := gen.Knowledge(gen.DefaultKnowledge(200, 4))
	p, err := DPar(g, Config{Workers: 4, D: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range p.Fragments {
		total += len(f.Owned)
	}
	if total != g.NumNodes() {
		t.Fatalf("owned %d of %d", total, g.NumNodes())
	}
}

func TestSkewAndWork(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(1500, 5))
	p, err := DPar(g, Config{Workers: 4, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	skew := p.Skew()
	if skew <= 0 || skew > 1 {
		t.Fatalf("skew = %f out of range", skew)
	}
	// The paper reports skew ≥ 0.8 at n=8; our BFS chunking plus MKP should
	// comfortably clear a looser bar on this workload.
	if skew < 0.5 {
		t.Errorf("skew = %f, fragments badly unbalanced", skew)
	}
	if p.MaxWork() <= 0 || p.TotalWork() < p.MaxWork() {
		t.Fatalf("work accounting broken: max=%d total=%d", p.MaxWork(), p.TotalWork())
	}
	// More workers must not increase the per-worker work.
	p8, err := DPar(g, Config{Workers: 8, D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p8.MaxWork() > p.MaxWork() {
		t.Errorf("MaxWork grew with more workers: n=4 %d, n=8 %d", p.MaxWork(), p8.MaxWork())
	}
}

func TestSkewOfIgnoresEmptyFragments(t *testing.T) {
	cases := []struct {
		sizes []int
		want  float64
	}{
		{nil, 0},
		{[]int{0, 0, 0}, 0},           // all empty: no load, no skew
		{[]int{5, 5, 0}, 1},           // an unpopulated worker is not imbalance
		{[]int{4, 8}, 0.5},            // real imbalance still shows
		{[]int{0, 3, 0, 12, 6}, 0.25}, // empties dropped, min/max over the rest
	}
	for _, c := range cases {
		if got := SkewOf(c.sizes); got != c.want {
			t.Errorf("SkewOf(%v) = %v, want %v", c.sizes, got, c.want)
		}
	}
}

// referenceDPar is the border phase as it was before the block kernel —
// one BFS and one induced-edge scan per border node, every Nd(v) stored,
// one membership set per fragment — kept as the oracle DPar must equal field
// by field. It also returns the adjacency slots its per-node sizing read,
// the unit the block kernel's cost is compared in.
func referenceDPar(g *graph.Graph, cfg Config) (*Partition, int) {
	if cfg.BalanceC == 0 {
		cfg.BalanceC = 2.5
	}
	n := cfg.Workers
	p := &Partition{G: g, D: cfg.D, Fragments: make([]*Fragment, n)}
	for i := range p.Fragments {
		p.Fragments[i] = &Fragment{Worker: i}
	}
	if g.NumNodes() == 0 {
		return p, 0
	}
	order := bfsOrder(g)
	home := make([]int, g.NumNodes())
	chunk := (len(order) + n - 1) / n
	fragNodes := make([][]bool, n)
	for i := range fragNodes {
		fragNodes[i] = make([]bool, g.NumNodes())
	}
	for i, v := range order {
		home[v] = i / chunk
		fragNodes[home[v]][v] = true
	}

	type borderNode struct {
		v     graph.NodeID
		nodes []graph.NodeID // Nd(v)
		size  int
	}
	var borders []borderNode
	visits := 0
	bfs := newBFS(g.NumNodes())
	for _, v := range order {
		h := home[v]
		foreign, visited := bfs.insideFragment(g, v, cfg.D, home, h)
		p.Fragments[h].Work += visited
		if foreign < 0 {
			p.Fragments[h].Owned = append(p.Fragments[h].Owned, v)
			continue
		}
		// neighborhood: plain bounded BFS from v alone.
		in := make([]bool, g.NumNodes())
		in[v] = true
		nd := []graph.NodeID{v}
		frontier := 0
		for hop := 0; hop < cfg.D; hop++ {
			for end := len(nd); frontier < end; frontier++ {
				u := nd[frontier]
				visits += len(g.Out(u)) + len(g.In(u))
				for _, es := range [][]graph.Edge{g.Out(u), g.In(u)} {
					for _, e := range es {
						if !in[e.To] {
							in[e.To] = true
							nd = append(nd, e.To)
						}
					}
				}
			}
		}
		// size: |nodes| + |induced edges|.
		size := len(nd)
		for _, u := range nd {
			visits += len(g.Out(u))
			for _, e := range g.Out(u) {
				if in[e.To] {
					size++
				}
			}
		}
		p.Fragments[h].Work += len(nd)
		borders = append(borders, borderNode{v: v, nodes: nd, size: size})
	}

	fragmentSize := func(present []bool) int {
		size := 0
		for v, in := range present {
			if !in {
				continue
			}
			size++
			for _, e := range g.Out(graph.NodeID(v)) {
				if present[e.To] {
					size++
				}
			}
		}
		return size
	}
	capTotal := int(cfg.BalanceC * float64(g.Size()) / float64(n))
	caps := make([]int, n)
	loads := make([]int, n)
	for i := range caps {
		loads[i] = fragmentSize(fragNodes[i])
		caps[i] = max(capTotal-loads[i], 0)
	}
	items := make([]Item, len(borders))
	for i, b := range borders {
		items[i] = Item{ID: i, Weight: b.size, Prefer: home[b.v]}
	}
	assignment := AssignMKP(items, caps)
	place := func(b borderNode, bin int) {
		for _, u := range b.nodes {
			fragNodes[bin][u] = true
		}
		p.Fragments[bin].Owned = append(p.Fragments[bin].Owned, b.v)
		p.Fragments[bin].Work += b.size
		loads[bin] += b.size
	}
	for i, bin := range assignment {
		if bin >= 0 {
			place(borders[i], bin)
		}
	}
	for i, bin := range assignment {
		if bin >= 0 {
			continue
		}
		smallest := 0
		for j := 1; j < n; j++ {
			if loads[j] < loads[smallest] {
				smallest = j
			}
		}
		place(borders[i], smallest)
	}
	for i, f := range p.Fragments {
		for v, in := range fragNodes[i] {
			if in {
				f.Nodes = append(f.Nodes, graph.NodeID(v))
			}
		}
		slices.Sort(f.Owned)
		f.Size = fragmentSize(fragNodes[i])
	}
	return p, visits
}

// bordersOf returns the border nodes DPar's second phase finds, in BFS
// order.
func bordersOf(g *graph.Graph, workers, d int) []graph.NodeID {
	p, err := DPar(g, Config{Workers: workers, D: 0}) // d=0: every node stays in its base chunk
	if err != nil {
		panic(err)
	}
	bfs, home := newBFS(g.NumNodes()), p.OwnerMap()
	var borders []graph.NodeID
	for _, v := range bfsOrder(g) {
		if u, _ := bfs.insideFragment(g, v, d, home, home[v]); u >= 0 {
			borders = append(borders, v)
		}
	}
	return borders
}

// equalToReference runs DPar against the reference and returns the
// kernel that sized its border neighborhoods.
func equalToReference(t *testing.T, what string, g *graph.Graph, cfg Config) *blockBFS {
	t.Helper()
	k := newBlockBFS(g.NumNodes())
	got, err := dpar(g, cfg, k)
	if err != nil {
		t.Fatalf("%s: DPar: %v", what, err)
	}
	want, _ := referenceDPar(g, cfg)
	for i, w := range want.Fragments {
		f := got.Fragments[i]
		if !slices.Equal(f.Nodes, w.Nodes) || !slices.Equal(f.Owned, w.Owned) || f.Size != w.Size || f.Work != w.Work {
			t.Fatalf("%s: fragment %d differs from the reference:\n got %d nodes, %d owned, size %d, work %d\nwant %d nodes, %d owned, size %d, work %d",
				what, i, len(f.Nodes), len(f.Owned), f.Size, f.Work, len(w.Nodes), len(w.Owned), w.Size, w.Work)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return k
}

// sweepGraph draws a small multigraph with self-loops, parallel edges
// under several labels, isolated nodes and (when sparse) many components.
func sweepGraph(r *rand.Rand) *graph.Graph {
	n := 1 + r.Intn(300)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("n")
	}
	live := 1 + r.Intn(n) // nodes past live stay isolated
	m := r.Intn(1 + live*(1+r.Intn(4)))
	if r.Intn(4) == 0 {
		m = r.Intn(1 + live/2) // sparse: disconnected components
	}
	for i := 0; i < m; i++ {
		a, b := graph.NodeID(r.Intn(live)), graph.NodeID(r.Intn(live))
		switch r.Intn(10) {
		case 0:
			b = a
		case 1:
			g.AddEdge(a, b, "x") // a parallel edge under a second label
		}
		g.AddEdge(a, b, string(rune('a'+r.Intn(2))))
	}
	g.Finalize()
	return g
}

// TestDParEqualsReferenceSweep: the block kernel changes how the border
// phase is computed, not what it computes, whichever way it takes each
// block's last hop.
func TestDParEqualsReferenceSweep(t *testing.T) {
	graphs := 2500
	if testing.Short() {
		graphs = 300
	}
	completed, pushed, pulled := 0, 0, 0
	for seed := 0; seed < graphs; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		g := sweepGraph(r)
		cfg := Config{Workers: 1 + r.Intn(6), D: r.Intn(4)}
		if r.Intn(2) == 0 {
			// Caps at or under the base chunks: the knapsack places little
			// and completion most.
			cfg.BalanceC = 0.2 + r.Float64()
			completed++
		}
		k := equalToReference(t, fmt.Sprintf("seed %d (|V|=%d |E|=%d %+v)", seed, g.NumNodes(), g.NumEdges(), cfg), g, cfg)
		pushed += k.pushed
		pulled += k.pulled
	}
	if completed < graphs/3 {
		t.Fatalf("only %d of %d graphs ran with a tight cap", completed, graphs)
	}
	t.Logf("last hops: %d pushed, %d pulled", pushed, pulled)
	if pushed == 0 || pulled == 0 {
		t.Fatalf("the sweep pushed %d last hops and pulled %d: both ways must be taken", pushed, pulled)
	}
}

// TestDParEqualsReferenceBenchmarkShapes: the graphs the benchmark
// partitions (persons 4000 and 6000, graph seed 1), so Work and with it
// qgpbench's partition-work figures are pinned where they are reported.
func TestDParEqualsReferenceBenchmarkShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("two 160k-edge reference partitions")
	}
	for _, persons := range []int{4000, 6000} {
		g := gen.Social(gen.DefaultSocial(persons, 1))
		for _, workers := range []int{2, 4} {
			equalToReference(t, fmt.Sprintf("persons=%d workers=%d", persons, workers), g, Config{Workers: workers, D: 2})
		}
	}
}

// TestBlockEdges pins the source counts at which a block is empty,
// alone, one short of full, full, one over and two full plus one — first
// on the kernel, whose sources may be any nodes, with the last hop pushed
// and pulled, then through DPar on paths cut in the middle (being a
// border node is mutual, so no graph has exactly one: 2 stands in).
func TestBlockEdges(t *testing.T) {
	g := gen.SmallWorld(gen.SmallWorldConfig{Nodes: 400, Edges: 1200, Seed: 3})
	order := bfsOrder(g)
	k := newBlockBFS(g.NumNodes())
	for _, last := range []direction{push, pull} {
		k.last = last
		for _, n := range []int{0, 1, 63, 64, 65, 129} {
			for d := 0; d <= 3; d++ {
				count, size := k.sizeAll(g, order[:n], d)
				for i, v := range order[:n] {
					nd := g.Neighborhood(v, d)
					sub, _ := g.Induced(nd)
					if count[i] != len(nd) || size[i] != sub.Size() {
						t.Fatalf("last hop %s, %d sources, d=%d, source %d: got |Nd|=%d size=%d, want %d and %d", [...]string{push: "pushed", pull: "pulled"}[last], n, d, i, count[i], size[i], len(nd), sub.Size())
					}
				}
			}
		}
	}
	if k.pushed == 0 || k.pulled == 0 {
		t.Fatalf("forced last hops ran %d pushed and %d pulled", k.pushed, k.pulled)
	}

	// A path of n nodes in BFS order 0..n-1, cut at ⌈n/2⌉: the d nodes on
	// either side of the cut are border nodes, or all of a shorter side.
	for _, c := range []struct{ borders, n, d int }{
		{0, 10, 0}, {2, 10, 1}, {63, 63, 32}, {64, 200, 32}, {65, 65, 33}, {129, 129, 65},
	} {
		g := graph.New(c.n)
		for i := 0; i < c.n; i++ {
			g.AddNode("n")
		}
		for i := 0; i+1 < c.n; i++ {
			g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), "e")
		}
		g.Finalize()
		cfg := Config{Workers: 2, D: c.d}
		if got := len(bordersOf(g, 2, c.d)); got != c.borders {
			t.Fatalf("path n=%d d=%d has %d border nodes, want %d", c.n, c.d, got, c.borders)
		}
		equalToReference(t, fmt.Sprintf("path n=%d d=%d", c.n, c.d), g, cfg)
	}
}

// TestLaneCounter holds the bit-sliced counter to plain per-lane
// counting: random words, added one by one or a row at a time, more than
// 2^16 additions so the ripple reaches plane 16, drained at lengths that
// leave the adder tree's buffer empty, full-but-one and part full.
func TestLaneCounter(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var c laneCounter
	member := make([]uint64, 50)
	for i := range member {
		member[i] = r.Uint64() | r.Uint64()
	}
	for _, adds := range []int{0, 1, 7, 8, 9, 1<<16 + 8, 1<<17 + 5, 3} {
		var want [64]int
		count := func(x uint64) {
			for l := range want {
				want[l] += int(x >> l & 1)
			}
		}
		for i := 0; i < adds; {
			x := r.Uint64()
			if i%5 == 0 {
				x |= 1 // lane 0 is incremented on most additions
			}
			if r.Intn(2) == 0 {
				c.add(x)
				count(x)
				i++
				continue
			}
			// A row of up to 20 edges into member, ANDed with x: its
			// groups of eight at once, the rest one by one.
			row := make([]graph.Edge, min(r.Intn(21), adds-i))
			for j := range row {
				row[j].To = graph.NodeID(r.Intn(len(member)))
				count(x & member[row[j].To])
			}
			i += len(row)
			for _, e := range c.addGroups(x, row, member) {
				c.add(x & member[e.To])
			}
		}
		lanes := 1 + r.Intn(64)
		if adds > 1<<16 {
			lanes = 64
		}
		got := make([]int, lanes)
		c.drain(got)
		if !slices.Equal(got, want[:lanes]) {
			t.Fatalf("%d additions, %d lanes:\n got %v\nwant %v", adds, lanes, got, want[:lanes])
		}
		if c != (laneCounter{}) {
			t.Fatalf("%d additions: drain left state behind", adds)
		}
	}
}

// grid is a w×h lattice with edges right and down: neighborhoods are
// small and, outside a block's 64 BFS-adjacent sources, disjoint — the
// shape on which sharing a sweep buys the kernel least.
func grid(w, h int) *graph.Graph {
	g := graph.New(w * h)
	for i := 0; i < w*h; i++ {
		g.AddNode("n")
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := graph.NodeID(y*w + x)
			if x+1 < w {
				g.AddEdge(v, v+1, "e")
			}
			if y+1 < h {
				g.AddEdge(v, v+graph.NodeID(w), "e")
			}
		}
	}
	g.Finalize()
	return g
}

var benchShapes = []struct {
	name string
	g    func() *graph.Graph
}{
	{"social", func() *graph.Graph { return gen.Social(gen.DefaultSocial(2000, 1)) }},
	{"grid", func() *graph.Graph { return grid(46, 45) }}, // 2070 nodes, as many as social persons=2000
}

// TestBlockKernelEdgeVisits: sizing 64 neighborhoods per sweep never
// reads more adjacency slots than sizing them one by one, and on the
// grid — nothing shared beyond the block — its word-wide bookkeeping has
// to be paid for by that alone, so it may not read more than the
// reference does there either (the bar is 1.5×; it is in fact under 1×).
// A pulled last hop reads every row of the graph, and those reads count:
// the rule may pull only where the bar still holds.
func TestBlockKernelEdgeVisits(t *testing.T) {
	pulled := 0
	for _, s := range benchShapes {
		g := s.g()
		for _, d := range []int{1, 2, 3} {
			cfg := Config{Workers: 4, D: d}
			_, ref := referenceDPar(g, cfg)
			borders := bordersOf(g, cfg.Workers, d)
			k := newBlockBFS(g.NumNodes())
			k.sizeAll(g, borders, d)
			pulled += k.pulled
			t.Logf("%s d=%d: %d border nodes, %d slots read against the reference's %d (%.2fx), %d of %d last hops pulled",
				s.name, d, len(borders), k.visits, ref, float64(k.visits)/float64(max(ref, 1)), k.pulled, k.pulled+k.pushed)
			if 2*k.visits > 3*ref {
				t.Errorf("%s d=%d: block kernel read %d adjacency slots, reference %d", s.name, d, k.visits, ref)
			}
		}
	}
	if pulled == 0 {
		t.Error("no last hop was pulled, so no pulled read was held to the bar")
	}
}

var sinkPartition *Partition

func BenchmarkDPar(b *testing.B) {
	for _, s := range benchShapes {
		g := s.g()
		b.Run(s.name, func(b *testing.B) {
			for b.Loop() {
				p, err := DPar(g, Config{Workers: 4, D: 2})
				if err != nil {
					b.Fatal(err)
				}
				sinkPartition = p
			}
		})
		b.Run(s.name+"/reference", func(b *testing.B) {
			for b.Loop() {
				sinkPartition, _ = referenceDPar(g, Config{Workers: 4, D: 2})
			}
		})
	}
}
