package fixture

import (
	"math/rand"

	"repro/internal/graph"
)

// Churn is a seeded stream of mutation batches over a gen.Social graph,
// shared by the differentials that hold incrementally repaired state
// (simulation.Repair, match.Bound, a session's bound store) against
// a fresh computation after every batch. Most edge inserts copy the
// endpoint labels of an existing edge, so they land where the mix patterns
// look; the rest is noise. Three rounds are scripted, because random churn
// does not produce them:
//
//   - ChurnLabelsAt: a node label ("gadget") and an edge label ("endorse")
//     the graph has never interned appear;
//   - ChurnDrainAt: every album is tombstoned, which empties the candidate
//     sets of any pattern that needs one;
//   - ChurnRefillAt: a new album is born and liked, which refills them.
type Churn struct {
	r     *rand.Rand
	round int
}

// The scripted rounds of a Churn, by Next's call count from zero.
const (
	ChurnLabelsAt = 40
	ChurnDrainAt  = 90
	ChurnRefillAt = 130
)

// ChurnLate are patterns over the labels round ChurnLabelsAt interns: no
// answer before it, some right after.
var ChurnLate = []string{
	"qgp\nn xo person *\nn z person\ne xo z endorse >=1\n",
	"qgp\nn xo person *\nn z gadget\ne xo z follow >=1\n",
}

// NewChurn returns the stream of the given seed.
func NewChurn(seed int64) *Churn {
	return &Churn{r: rand.New(rand.NewSource(seed))}
}

// Next returns the next batch over g's current state. Every op names valid
// nodes, so Versioned.Apply accepts it; some ops are no-ops (an edge that
// exists, a node already isolated).
func (c *Churn) Next(g *graph.Graph) []graph.Mutation {
	round := c.round
	c.round++
	r := c.r
	n := g.NumNodes()
	persons := g.NodesByLabelName("person")
	switch round {
	case ChurnLabelsAt:
		return []graph.Mutation{
			{Op: graph.MutAddNode, Label: "gadget"},
			{Op: graph.MutAddEdge, From: persons[0], To: graph.NodeID(n), Label: "follow"},
			{Op: graph.MutAddEdge, From: persons[1], To: persons[2], Label: "endorse"},
		}
	case ChurnDrainAt:
		var muts []graph.Mutation
		for _, v := range g.NodesByLabelName("album") {
			muts = append(muts, graph.Mutation{Op: graph.MutRemoveNode, From: v})
		}
		return muts
	case ChurnRefillAt:
		muts := []graph.Mutation{{Op: graph.MutAddNode, Label: "album"}}
		for i := 0; i < 12; i++ {
			muts = append(muts, graph.Mutation{Op: graph.MutAddEdge, From: persons[r.Intn(len(persons))], To: graph.NodeID(n), Label: "like"})
		}
		return muts
	}

	// An existing edge, as the model for schema-respecting inserts and the
	// victim of removals; ok is false when the probes found none.
	someEdge := func() (from graph.NodeID, e graph.Edge, ok bool) {
		for probe := 0; probe < 8; probe++ {
			from = graph.NodeID(r.Intn(n))
			if out := g.Out(from); len(out) > 0 {
				return from, out[r.Intn(len(out))], true
			}
		}
		return 0, graph.Edge{}, false
	}
	sameLabel := func(v graph.NodeID) graph.NodeID {
		class := g.NodesByLabel(g.NodeLabel(v))
		return class[r.Intn(len(class))]
	}
	size := 1 + r.Intn(8)
	muts := make([]graph.Mutation, 0, size)
	for len(muts) < size {
		from, e, ok := someEdge()
		roll := r.Intn(100)
		switch {
		case !ok:
			return muts
		case roll < 45:
			muts = append(muts, graph.Mutation{Op: graph.MutAddEdge, From: sameLabel(from), To: sameLabel(e.To), Label: g.LabelName(e.Label)})
		case roll < 75:
			muts = append(muts, graph.Mutation{Op: graph.MutRemoveEdge, From: from, To: e.To, Label: g.LabelName(e.Label)})
		case roll < 83:
			// The newborn is wired in by later rounds' schema-respecting
			// inserts, which draw endpoints from its label class.
			muts = append(muts, graph.Mutation{Op: graph.MutAddNode, Label: g.NodeLabelName(from)})
		case roll < 87:
			muts = append(muts, graph.Mutation{Op: graph.MutRemoveNode, From: graph.NodeID(r.Intn(n))})
		default:
			muts = append(muts, graph.Mutation{Op: graph.MutAddEdge, From: graph.NodeID(r.Intn(n)), To: graph.NodeID(r.Intn(n)), Label: g.LabelName(e.Label)})
		}
	}
	return muts
}

// WatchBatch is batch i of the benchmark's update-watch schedule
// (benchmark/workloads.go, batchFor) in the core's vocabulary, over a
// gen.Social graph whose persons are ids [0, persons): 4 follow edges
// inserted between hashed person pairs, the 4 that batch i-4 inserted
// removed again, and every 16th batch a person added that is tombstoned 8
// batches later. base is the node count before batch 0; batches run from
// 0 in order.
func WatchBatch(persons, base, i int) []graph.Mutation {
	pair := func(k int) (graph.NodeID, graph.NodeID) {
		x := uint64(k) + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		from, to := x%uint64(persons), (x>>32)%uint64(persons)
		if to == from {
			to = (to + 1) % uint64(persons)
		}
		return graph.NodeID(from), graph.NodeID(to)
	}
	muts := make([]graph.Mutation, 0, 9)
	for j := 0; j < 4; j++ {
		from, to := pair(4*i + j)
		muts = append(muts, graph.Mutation{Op: graph.MutAddEdge, From: from, To: to, Label: "follow"})
	}
	for j := 0; j < 4 && i >= 4; j++ {
		from, to := pair(4*(i-4) + j)
		muts = append(muts, graph.Mutation{Op: graph.MutRemoveEdge, From: from, To: to, Label: "follow"})
	}
	switch i % 16 {
	case 0:
		muts = append(muts, graph.Mutation{Op: graph.MutAddNode, Label: "person"})
	case 8:
		muts = append(muts, graph.Mutation{Op: graph.MutRemoveNode, From: graph.NodeID(base + i/16)})
	}
	return muts
}
