package cluster

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/server"
)

// Distributed statistics. The front end used to serve stats by cloning
// the authoritative graph and collecting over the clone — O(|G|) on the
// front-end process, pinned there no matter how many replicas the
// cluster had. Stats is instead fanned out like Match: each fragment
// copy answers the stats wire command with its OWNED-restricted summary
// (structured TripleRows; see stats.CollectOwned for why per-worker
// sums are exact), routed to the least-loaded live copy under the read
// lock, and the coordinator merges by summing per class. The last
// read-only command that pinned the primary/front end now scales with
// the replication factor like every other read.

// Stats fans the stats command out across fragment copies (routedRead)
// and merges the owned-restricted summaries. The merged summary is exact
// — equal to collecting over the whole graph in one process — because
// ownership partitions the nodes and each owned node's full neighborhood
// is materialized in its owner's fragment. Config.Tracer traces it.
func (c *Coordinator) Stats() (res *server.StatsSummary, err error) {
	tr := c.cfg.Tracer.Start("stats")
	defer func() { tr.Finish(err) }()
	return c.stats(tr)
}

// stats runs Stats, recording an rtt span per worker in tr.
func (c *Coordinator) stats(tr *obs.Trace) (res *server.StatsSummary, err error) {
	// TopK 1 keeps the workers' rendered-string work minimal; the merge
	// consumes only the complete structured rows.
	req := server.Request{Cmd: "stats", TopK: 1}
	err = c.routedRead(tr, req, func(replies []workerReply) error {
		res = mergeStats(replies)
		return nil
	})
	return res, err
}

// mergeStats sums the workers' owned-restricted summaries per class.
func mergeStats(replies []workerReply) *server.StatsSummary {
	out := &server.StatsSummary{}
	rowIx := make(map[[3]string]int)
	labels := make(map[string]bool)
	for _, r := range replies {
		resp := r.resp
		out.Nodes += resp.Nodes
		out.Edges += resp.Edges
		for _, l := range resp.LabelNames {
			labels[l] = true
		}
		for _, r := range resp.TripleRows {
			key := [3]string{r.Src, r.Edge, r.Dst}
			if i, ok := rowIx[key]; ok {
				out.Rows[i].Count += r.Count
				out.Rows[i].Srcs += r.Srcs
				out.Rows[i].Dsts += r.Dsts
			} else {
				rowIx[key] = len(out.Rows)
				out.Rows = append(out.Rows, r)
			}
		}
	}
	out.Labels = make([]string, 0, len(labels))
	for l := range labels {
		out.Labels = append(out.Labels, l)
	}
	sort.Strings(out.Labels)
	return out
}
