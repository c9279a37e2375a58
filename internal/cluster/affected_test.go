package cluster

import (
	"fmt"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// affectedWatches are a counted follow pattern, one outside the countable
// class (a cycle through a product both persons recommend) and a counted
// product pattern. The first re-judges the persons whose counts moved, the
// cycle searches what its reach plan names, and the last re-judges
// products: whenever it and a person group both work, the widest group is
// less than their union.
var affectedWatches = []string{
	"qgp\nn xo person *\nn z person\ne xo z follow >=2\n",
	"qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=1\ne z p recom >=1\ne xo p recom >=1\n",
	"qgp\nn xo product *\nn z person\ne z xo recom\n",
}

var wireOps = map[graph.MutationOp]string{
	graph.MutAddNode: "addNode", graph.MutAddEdge: "addEdge", graph.MutRemoveEdge: "removeEdge", graph.MutRemoveNode: "removeNode",
}

func specsOf(muts []graph.Mutation) []server.UpdateSpec {
	out := make([]server.UpdateSpec, len(muts))
	for i, m := range muts {
		out[i] = server.UpdateSpec{Op: wireOps[m.Op], From: int64(m.From), To: int64(m.To), Label: m.Label}
	}
	return out
}

func edgeOnly(muts []graph.Mutation) bool {
	for _, m := range muts {
		if m.Op != graph.MutAddEdge && m.Op != graph.MutRemoveEdge {
			return false
		}
	}
	return true
}

// TestAffectedSizeIsWorkersJudged pins the one definition of an update's
// AffectedSize: the candidates the workers' widest watch groups re-judged,
// plus the nodes assigned to them while a watch stands.
func TestAffectedSizeIsWorkersJudged(t *testing.T) {
	g := gen.Social(gen.DefaultSocial(300, 5))

	t.Run("one worker is the unrestricted engine", func(t *testing.T) {
		c := newEmbedded(t, g, 1, Config{D: 2})
		vg := graph.NewVersioned(c.Graph())
		eng, err := dynamic.NewEngine(vg.Graph(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, dsl := range affectedWatches {
			name := fmt.Sprintf("w%d", i)
			if _, err := c.Watch(name, mustParse(t, dsl)); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Watch(name, mustParse(t, dsl)); err != nil {
				t.Fatal(err)
			}
		}
		churn := fixture.NewChurn(31)
		compared, apart := 0, 0
		for round := 0; round < 80; round++ {
			muts := churn.Next(vg.Graph())
			if len(muts) == 0 {
				continue
			}
			res, err := c.Update(specsOf(muts))
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			old, err := vg.Apply(muts)
			if err != nil {
				t.Fatal(err)
			}
			deltas, err := eng.Apply(old, vg.Graph(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !edgeOnly(muts) {
				continue
			}
			want := 0
			for _, d := range deltas {
				want = max(want, d.Affected)
			}
			if max(deltas[0].Affected, deltas[1].Affected) > 0 && deltas[2].Affected > 0 {
				apart++
			}
			if res.AffectedSize != want {
				t.Fatalf("round %d: AffectedSize %d, the engine's widest group re-judged %d (%+v)", round, res.AffectedSize, want, muts)
			}
			compared++
		}
		if compared < 20 || apart == 0 {
			t.Fatalf("%d edge-only batches compared, %d where persons and products were both re-judged: the stream does not tell widest from union", compared, apart)
		}
	})

	t.Run("two workers sum their documents", func(t *testing.T) {
		c := newEmbedded(t, g, 2, Config{D: 2})
		for i, dsl := range affectedWatches {
			if _, err := c.Watch(fmt.Sprintf("w%d", i), mustParse(t, dsl)); err != nil {
				t.Fatal(err)
			}
		}
		ref := c.Graph()
		churn := fixture.NewChurn(37)
		assigned := 0
		for round := 0; round < 60; round++ {
			muts := churn.Next(ref)
			if len(muts) == 0 {
				continue
			}
			var res *UpdateResult
			rec, err := traced(func(tr *obs.Trace) (err error) {
				res, err = c.update(specsOf(muts), tr)
				return err
			})
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			assigned += res.Nodes - ref.NumNodes()
			if ref, _, err = dynamic.Apply(ref, muts); err != nil {
				t.Fatal(err)
			}
			sum := 0
			for _, w := range workerRecords(t, rec) {
				sum += w.Counts["affected"]
			}
			if res.AffectedSize != sum || rec.Counts["affected"] != sum {
				t.Fatalf("round %d: AffectedSize %d (record %d), the workers' records sum to %d", round, res.AffectedSize, rec.Counts["affected"], sum)
			}
		}
		if assigned == 0 {
			t.Fatal("no batch assigned a node: the assignment term went unchecked")
		}
	})

	t.Run("no watch judges nobody", func(t *testing.T) {
		c := newEmbedded(t, g, 2, Config{D: 2})
		n := int64(g.NumNodes())
		res, err := c.Update([]server.UpdateSpec{
			{Op: "addNode", Label: "person"},
			{Op: "addEdge", From: n, To: 0, Label: "follow"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Contacted) == 0 || res.AffectedSize != 0 {
			t.Fatalf("addNode with no watch contacted %v and reports AffectedSize %d, want a worker assigned and 0", res.Contacted, res.AffectedSize)
		}
	})
}
