// Package parallel implements PQMatch (§5): quantified matching over a
// d-hop preserving partition with inter-fragment parallelism and
// intra-fragment parallelism (mQMatch splits a fragment's owned focus
// candidates across b threads). It is a driver, not an evaluator: the
// pattern is prepared once per run (match.PrepareEngine, which also owns
// the engine names), bound once per fragment (match.Bound, shared by the
// fragment's threads), and each thread asks the bound about exactly its
// chunk of the owned nodes — match.Options.FocusRestrict, where an empty
// list means nobody, so a fragment that owns nothing answers nothing.
//
// Because the session machine may have a single CPU, results carry both
// wall-clock time and machine-independent work accounting: TotalWork is
// the sequential cost and SimWork the idealized parallel cost (the maximum
// work of any thread across workers). The paper's parallel-scalability
// claim — T ≈ t/n + bookkeeping — is validated on SimWork.
package parallel

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/partition"
)

// Cluster is a partitioned graph with per-fragment subgraphs materialized,
// ready to evaluate any pattern whose RequiredHops is within the
// partition's d. Build it once with NewCluster; it is safe for concurrent
// PQMatch runs.
type Cluster struct {
	Part  *partition.Partition
	frags []*localFragment
}

type localFragment struct {
	sub      *graph.Graph
	toGlobal []graph.NodeID
	owned    []graph.NodeID // local ids of owned nodes; never nil (nil would ask about everyone)
}

// NewCluster materializes each fragment's induced subgraph.
func NewCluster(p *partition.Partition) *Cluster {
	c := &Cluster{Part: p, frags: make([]*localFragment, len(p.Fragments))}
	for i, f := range p.Fragments {
		sub, toGlobal := p.G.Induced(f.Nodes)
		toLocal := make(map[graph.NodeID]graph.NodeID, len(toGlobal))
		for local, global := range toGlobal {
			toLocal[global] = graph.NodeID(local)
		}
		owned := make([]graph.NodeID, len(f.Owned))
		for j, v := range f.Owned {
			owned[j] = toLocal[v]
		}
		c.frags[i] = &localFragment{sub: sub, toGlobal: toGlobal, owned: owned}
	}
	return c
}

// RequiredHops is core.RequiredHops(q). benchmark/ imports this name;
// delete after ROADMAP 1(a).
func RequiredHops(q *core.Pattern) int { return core.RequiredHops(q) }

// Result is the outcome of a parallel run.
type Result struct {
	Matches []graph.NodeID
	Metrics match.Metrics
	Wall    time.Duration
	// TotalWork is the summed work units (extension attempts +
	// verifications) over all threads: the sequential cost.
	TotalWork int64
	// SimWork is the idealized parallel cost: the maximum work of any
	// thread, with threads of one worker running concurrently and workers
	// running concurrently.
	SimWork int64
}

// Run evaluates a QGP over the cluster with the engine of the given wire
// name (match.PrepareEngine: "qmatch" or empty, "qmatchn", "enum") and b
// intra-fragment threads, which share their fragment's bound: its candidate
// sets are built once, not per thread. It errors when the pattern needs
// more hops than the partition preserves (matching would silently lose
// answers).
func Run(c *Cluster, q *core.Pattern, engine string, threads int) (*Result, error) {
	prep, err := match.PrepareEngine(engine, q)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	if need := RequiredHops(q); need > c.Part.D {
		return nil, fmt.Errorf("parallel: pattern needs %d-hop preservation but partition has d=%d", need, c.Part.D)
	}
	if threads < 1 {
		threads = 1
	}

	start := time.Now()
	type chunkResult struct {
		res *match.Result
		err error
	}
	results := make([][]chunkResult, len(c.frags))
	var wg sync.WaitGroup
	for wi, f := range c.frags {
		bound := prep.Bind(f.sub)
		// mQMatch: split the owned focus candidates across b threads.
		chunks := splitChunks(f.owned, threads)
		results[wi] = make([]chunkResult, len(chunks))
		for ti, chunk := range chunks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cr := &results[wi][ti]
				cr.res, cr.err = bound.Run(&match.Options{FocusRestrict: chunk})
			}()
		}
	}
	wg.Wait()

	out := &Result{Wall: time.Since(start)}
	for wi, f := range c.frags {
		for _, cr := range results[wi] {
			if cr.err != nil {
				return nil, cr.err
			}
			out.Metrics.Add(cr.res.Metrics)
			w := cr.res.Metrics.Extensions + int64(cr.res.Metrics.Verifications)
			out.TotalWork += w
			out.SimWork = max(out.SimWork, w)
			// Owned sets are disjoint, so no answer arrives twice.
			for _, v := range cr.res.Matches {
				out.Matches = append(out.Matches, f.toGlobal[v])
			}
		}
	}
	slices.Sort(out.Matches)
	return out, nil
}

// PQMatch runs the optimized engine with b threads per worker.
func PQMatch(c *Cluster, q *core.Pattern, threads int) (*Result, error) {
	return Run(c, q, "qmatch", threads)
}

// splitChunks partitions vs into at most n non-empty chunks of near-equal
// size; it returns at least one (possibly empty) chunk so every worker
// reports metrics.
func splitChunks(vs []graph.NodeID, n int) [][]graph.NodeID {
	if n > len(vs) && len(vs) > 0 {
		n = len(vs)
	}
	if len(vs) == 0 || n <= 1 {
		return [][]graph.NodeID{vs}
	}
	out := make([][]graph.NodeID, 0, n)
	size := (len(vs) + n - 1) / n
	for i := 0; i < len(vs); i += size {
		end := i + size
		if end > len(vs) {
			end = len(vs)
		}
		out = append(out, vs[i:end])
	}
	return out
}
