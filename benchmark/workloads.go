package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/server"
)

// kind is what a workload's clients do.
type kind int

const (
	kindSingle kind = iota // in-process match.QMatch, no service
	kindMatch              // closed-loop matches through the service
	kindUpdate             // closed-loop update batches through the service
	kindMixed              // open-loop writer beside a closed-loop fenced reader
)

// workload is one named traffic mix. The cluster behind kindMatch,
// kindUpdate and kindMixed is always the same rig (rig.go); workloads
// differ in graph size, standing watches and what the clients send.
type workload struct {
	name    string
	kind    kind
	persons int // gen.Social size
	watches int // standing watches held by the writer tenant
	clients int // client goroutines (= connections) in the untraced run, capped at GOMAXPROCS
}

var workloads = []workload{
	{name: "match-single", kind: kindSingle, persons: 6000, watches: 2, clients: 1},
	{name: "match-cluster", kind: kindMatch, persons: 6000, watches: 2, clients: 2},
	{name: "update-watch", kind: kindUpdate, persons: 4000, watches: 8, clients: 1},
	{name: "mixed-tenants", kind: kindMixed, persons: 6000, watches: 2, clients: 2},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	clusterWorkers  = 2
	clusterReplicas = 2
	clusterD        = 2
	// openLoopRate is tenant A's write schedule on mixed-tenants: about a
	// fifth of what one P sustains beside the reader, so no backlog builds.
	// Per second of the reference box: writeLoop stretches the schedule
	// with the machine's slowdown.
	openLoopRate = 20 // batches/s
)

// mixDSL is the pinned pattern mix: one pattern per quantifier family of
// the paper, all with RequiredHops <= clusterD. Answer sets span a few
// per cent to nearly all persons (checkMix).
var mixDSL = []struct{ name, dsl string }{
	{"numeric", "qgp\nn xo person *\nn z person\ne xo z follow >=3\n"},
	{"path2", "qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=2\ne z p recom >=1\n"},
	{"ratio", "qgp\nn xo person *\nn z person\nn y album\ne xo z follow >=30%\ne z y like\n"},
	{"negation", "qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p bad_rating =0\n"},
	{"selective", "qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=30\ne z p buy\n"},
	{"universal", "qgp\nn xo person *\nn z person\nn c city\ne xo z follow =100%\ne z c in\n"},
}

// mixSchedule is the order one round of matches visits the mix: every
// pattern once and the numeric one, the cheapest, twice. The reported
// latency is the median over rounds of a round's mean (phase.opLatency).
var mixSchedule = []int{0, 1, 2, 3, 0, 4, 5}

// watchDSL is what the standing watches hold: watch i holds pattern
// i % len, so with 8 watches every pattern is held under two names and
// shared evaluation of duplicates would show. All four have radius 1 on
// the follow edges the batches churn. A radius-2 watch on this generator
// re-verifies ~98% of |V| per batch (every person is two undirected hops
// from most others through a city or album hub), which would turn the
// write workloads into match workloads; cluster.affected_ratio reports
// the regime actually measured.
var watchDSL = []struct{ name, dsl string }{
	{"follows3", "qgp\nn xo person *\nn z person\ne xo z follow >=3\n"},
	{"follows-nobody", "qgp\nn xo person *\nn z person\ne xo z follow =0\n"},
	{"follows-few", "qgp\nn xo person *\nn z person\ne xo z follow <=5\n"},
	{"follows10", "qgp\nn xo person *\nn z person\ne xo z follow >=10\n"},
}

// startSlot is where client i enters the mix schedule: the seed moves
// the phase, and clients are spread so they do not march in step.
func (in *inputs) startSlot(i int) int {
	return int(uint64(in.seed)%uint64(len(mixSchedule))) + 3*i
}

func watchName(i int) string { return fmt.Sprintf("w%d", i) }

// graphSeed generates the dataset. It is pinned, like the fixed Pokec
// and YAGO2 graphs of the paper's evaluation: the cost of a match depends
// on which few hub entities a generator seed happens to pick, and letting
// it vary with every run would put a ~15% spread under every metric. The
// run's -seed drives the request streams instead: the batch schedule and
// where in the mix each client starts. -graph-seed checks a claim on a
// second dataset.
const graphSeed = 1

// inputs is everything a workload ships to the program, derived from
// the two seeds alone.
type inputs struct {
	seed    int64 // request-stream seed
	persons int
	g       *graph.Graph    // edge-set normalized, as the coordinator keeps it
	text    string          // g in the graph text format, for the load command
	mix     []*core.Pattern // mixDSL, parsed
	watch   []*core.Pattern // watchDSL, parsed
}

func genInputs(persons int, graphSeed, seed int64) (*inputs, error) {
	g, _, err := dynamic.Apply(gen.Social(gen.DefaultSocial(persons, graphSeed)), nil)
	if err != nil {
		return nil, fmt.Errorf("normalize graph: %w", err)
	}
	var sb strings.Builder
	if _, err := g.WriteTo(&sb); err != nil {
		return nil, fmt.Errorf("serialize graph: %w", err)
	}
	in := &inputs{seed: seed, persons: persons, g: g, text: sb.String()}
	parse := func(name, dsl string) (*core.Pattern, error) {
		q, err := core.Parse(dsl)
		if err != nil {
			return nil, fmt.Errorf("pattern %s: %w", name, err)
		}
		if h := parallel.RequiredHops(q); h > clusterD {
			return nil, fmt.Errorf("pattern %s needs %d hops, fragmentation keeps %d", name, h, clusterD)
		}
		return q, nil
	}
	for _, m := range mixDSL {
		q, err := parse(m.name, m.dsl)
		if err != nil {
			return nil, err
		}
		in.mix = append(in.mix, q)
	}
	for _, m := range watchDSL {
		q, err := parse(m.name, m.dsl)
		if err != nil {
			return nil, err
		}
		in.watch = append(in.watch, q)
	}
	return in, nil
}

// splitmix is the 64-bit finalizer of SplitMix64: a stateless hash, so
// batch i is a function of (seed, i) and any client can produce it.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// edgeLag is how many batches an inserted edge lives before a later
// batch removes it again, which bounds the graph's edge mass.
// batchPeriod is the period of the schedule's node ops.
const (
	edgeLag     = 4
	batchPeriod = 16
)

// batchFor returns update batch i: 4 follow edges inserted between
// pseudo-random persons, the 4 edges batch i-edgeLag inserted removed
// again, and every batchPeriod batches a person added and tombstoned half
// a period later. No op can fail: endpoints are always valid ids and
// redundant edge ops are no-ops in the edge-set model. The shape follows
// BenchmarkUpdateThroughput's bounded schedule.
func (in *inputs) batchFor(i int) []server.UpdateSpec {
	pair := func(k int) (int64, int64) {
		h := splitmix(uint64(in.seed)<<32 ^ uint64(k))
		from := int64(h % uint64(in.persons))
		to := int64((h >> 32) % uint64(in.persons))
		if to == from {
			to = (to + 1) % int64(in.persons)
		}
		return from, to
	}
	specs := make([]server.UpdateSpec, 0, 9)
	for j := 0; j < 4; j++ {
		from, to := pair(4*i + j)
		specs = append(specs, server.UpdateSpec{Op: "addEdge", From: from, To: to, Label: "follow"})
	}
	for j := 0; j < 4 && i >= edgeLag; j++ {
		from, to := pair(4*(i-edgeLag) + j)
		specs = append(specs, server.UpdateSpec{Op: "removeEdge", From: from, To: to, Label: "follow"})
	}
	switch i % batchPeriod {
	case 0:
		specs = append(specs, server.UpdateSpec{Op: "addNode", Label: "person"})
	case batchPeriod / 2:
		// The node added half a period ago: ids are handed out in order.
		specs = append(specs, server.UpdateSpec{Op: "removeNode", From: int64(in.g.NumNodes() + i/batchPeriod)})
	}
	return specs
}
