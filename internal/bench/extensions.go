package bench

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
)

// Experiments 14 to 16 are not paper figures: they measure the extension
// subsystems (the matching order, dynamic maintenance, counted reads) with
// the same row format as the paper experiments, so qgpbench serves both.

// exp14 — matching order: QMatch's work under the engine's one order,
// ranked by label-class sizes, per pattern size. Its total_work is the
// number an order regression moves.
func exp14(sc Scale, w io.Writer) error {
	g := gen.Social(gen.DefaultSocial(sc.SocialPersons, sc.Seed))
	for _, shape := range []struct{ nodes, edges int }{{4, 5}, {5, 6}, {6, 7}} {
		patterns := patternsWithHops(g, gen.PatternConfig{
			Nodes: shape.nodes, Edges: shape.edges, RatioBP: 3000, Seed: sc.Seed + int64(shape.nodes),
		}, sc.PatternsPerPoint, 3)
		if len(patterns) == 0 {
			continue
		}
		start := time.Now()
		var work int64
		matches := 0
		for _, p := range patterns {
			res, err := match.QMatch(g, p, nil)
			if err != nil {
				return err
			}
			work += res.Metrics.Extensions + int64(res.Metrics.Verifications)
			matches += len(res.Matches)
		}
		row(w, 14, fmt.Sprintf("(%d,%d)", shape.nodes, shape.edges), "order", time.Since(start), work, work, matches)
	}
	return nil
}

// exp15 — dynamic maintenance: each pattern of the benchmark's mix kept as a
// standing watch over a social graph, under the benchmark's batch shape —
// 4 follow edges inserted between pseudo-random persons, and the 4 a batch
// four earlier inserted removed again. Per pattern it reports, per batch,
// the focus candidates the pattern's reach plan names (what a search
// re-verifies), those the watch's counts re-judged, and the answers
// that flipped. The three counts are deterministic; wall_ms is the watch's
// upkeep alone.
func exp15(sc Scale, w io.Writer) error {
	const batches, lag = 200, 4
	g := gen.Social(gen.DefaultSocial(sc.SocialPersons, sc.Seed))
	r := rand.New(rand.NewSource(sc.Seed))
	follows := make([]graph.Mutation, 4*batches)
	for i := range follows {
		// gen.Social numbers the persons first.
		from, to := graph.NodeID(r.Intn(sc.SocialPersons)), graph.NodeID(r.Intn(sc.SocialPersons-1))
		if to >= from {
			to++
		}
		follows[i] = graph.AddEdge(from, to, "follow")
	}
	for _, mp := range fixture.Mix {
		q, err := core.Parse(mp.DSL)
		if err != nil {
			return err
		}
		vg := graph.NewVersioned(g.Clone())
		m, err := dynamic.NewMatcher(vg.Graph(), q)
		if err != nil {
			return err
		}
		reachPlan := dynamic.NewReachPlan(q)
		var upkeep time.Duration
		reach, judged, flips := 0, 0, 0
		for i := 0; i < batches; i++ {
			ups := slices.Clone(follows[4*i : 4*i+4])
			if i >= lag {
				for _, f := range follows[4*(i-lag) : 4*(i-lag)+4] {
					ups = append(ups, graph.RemoveEdge(f.From, f.To, f.Label))
				}
			}
			old, err := vg.Apply(ups)
			if err != nil {
				return err
			}
			reach += len(reachPlan.Affected(old, vg.Graph(), old.Edits()))
			start := time.Now()
			d, err := m.ApplyShared(old, vg.Graph(), nil)
			if err != nil {
				return err
			}
			upkeep += time.Since(start)
			judged += d.Affected
			flips += len(d.Added) + len(d.Removed)
		}
		per := func(n int) float64 { return float64(n) / batches }
		fmt.Fprintf(w, "exp 15  x=%-12s series=%-9s wall_ms=%-9.2f reach_per_batch=%-7.2f rejudged_per_batch=%-7.2f flips_per_batch=%.2f\n",
			mp.Name, "watch", float64(upkeep.Microseconds())/1000, per(reach), per(judged), per(flips))
	}
	return nil
}

// exp16 — sizing ROADMAP item 11(a): what a read of each pattern of the
// benchmark's mix costs answered from counts, as a standing watch answers
// it, against the paper's search. Over a social graph of half the scale's
// persons (6 000 at full scale), per pattern: series "counts" is
// dynamic.NewMatcher, the counts built and the answers listed; "qmatch" is
// match.QMatch; "bound-hit" is a second Run of one Bound at the same graph
// version, the cost a read pays when the session's bound store hits. Each
// time is the median of five runs, and the three answer sets must be equal.
func exp16(sc Scale, w io.Writer) error {
	const reps = 5
	g := gen.Social(gen.DefaultSocial(sc.SocialPersons/2, sc.Seed))
	median := func(run func() ([]graph.NodeID, error)) ([]graph.NodeID, time.Duration, error) {
		var ans []graph.NodeID
		times := make([]time.Duration, reps)
		for i := range times {
			start := time.Now()
			var err error
			if ans, err = run(); err != nil {
				return nil, 0, err
			}
			times[i] = time.Since(start)
		}
		slices.Sort(times)
		return ans, times[reps/2], nil
	}
	for _, mp := range fixture.Mix {
		q, err := core.Parse(mp.DSL)
		if err != nil {
			return err
		}
		prep, err := match.Prepare(q)
		if err != nil {
			return err
		}
		b := prep.Bind(g)
		if _, err := b.Run(match.EngineQMatch, nil); err != nil { // builds the bound's sets
			return err
		}
		series := []struct {
			name string
			run  func() ([]graph.NodeID, error)
		}{
			{"counts", func() ([]graph.NodeID, error) {
				m, err := dynamic.NewMatcher(g, q)
				if err != nil {
					return nil, err
				}
				return m.Answers(), nil
			}},
			{"qmatch", func() ([]graph.NodeID, error) {
				res, err := match.QMatch(g, q, nil)
				if err != nil {
					return nil, err
				}
				return res.Matches, nil
			}},
			{"bound-hit", func() ([]graph.NodeID, error) {
				res, err := b.Run(match.EngineQMatch, nil)
				if err != nil {
					return nil, err
				}
				return res.Matches, nil
			}},
		}
		var want []graph.NodeID
		for i, s := range series {
			ans, wall, err := median(s.run)
			if err != nil {
				return err
			}
			if i == 0 {
				want = ans
			} else if !slices.Equal(ans, want) {
				return fmt.Errorf("%s: %s answers %d nodes, counts %d", mp.Name, s.name, len(ans), len(want))
			}
			fmt.Fprintf(w, "exp 16  x=%-12s series=%-9s wall_ms=%-9.3f matches=%d\n",
				mp.Name, s.name, float64(wall.Microseconds())/1000, len(ans))
		}
	}
	return nil
}
