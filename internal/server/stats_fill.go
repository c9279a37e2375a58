package server

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/stats"
)

// This file is the ONE code path that turns graph statistics into a
// stats response. A session's summary and the cluster's sum of its
// fragments' both land in fillStats, so the TopK cap, the row ordering and
// the rendered string format cannot drift between deployment shapes.

// StatsSummary is a stats reply before it is rendered: node and edge
// counts, every triple class (unordered), and the sorted names of the node
// labels present. Summaries of owned-restricted fragments add up to the
// whole graph's (stats.CollectOwned), which is how a cluster answers.
type StatsSummary struct {
	Nodes  int
	Edges  int
	Labels []string
	Rows   []TripleRow
}

// StatsTopK resolves a stats request's TopK: non-positive takes the
// historical default of 10 rendered triple classes.
func StatsTopK(k int) int {
	if k <= 0 {
		return 10
	}
	return k
}

// summarize converts a collected summary to name-based rows.
func summarize(g *graph.Graph, st *stats.Stats) *StatsSummary {
	sum := &StatsSummary{Nodes: st.Nodes, Edges: st.Edges, Rows: make([]TripleRow, 0, len(st.Triples))}
	for t, ts := range st.Triples {
		sum.Rows = append(sum.Rows, TripleRow{
			Src: g.LabelName(t.Src), Edge: g.LabelName(t.Edge), Dst: g.LabelName(t.Dst),
			Count: ts.Count, Srcs: ts.SrcNodes, Dsts: ts.DstNodes,
		})
	}
	sum.Labels = make([]string, 0, len(st.LabelCount))
	for l, n := range st.LabelCount {
		if n > 0 {
			sum.Labels = append(sum.Labels, g.LabelName(l))
		}
	}
	sort.Strings(sum.Labels)
	return sum
}

// fillStats fills a stats response from a summary, sorting its rows by
// descending count with name ties ascending (deterministic regardless of
// which worker contributed what); topK caps only the rendered Triples
// strings, the structured rows stay complete.
func fillStats(resp *Response, sum *StatsSummary, topK int) {
	rows := sum.Rows
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Edge != b.Edge {
			return a.Edge < b.Edge
		}
		return a.Dst < b.Dst
	})
	resp.Nodes, resp.Edges = sum.Nodes, sum.Edges
	resp.Labels = len(sum.Labels)
	resp.LabelNames = sum.Labels
	resp.TripleRows = rows
	k := StatsTopK(topK)
	if k > len(rows) {
		k = len(rows)
	}
	for _, r := range rows[:k] {
		resp.Triples = append(resp.Triples, describeRow(r))
	}
}

// describeRow renders one triple row, the one text form of a triple
// class: "Src -edge-> Dst: count=… srcs=… dsts=… fanOut=…".
func describeRow(r TripleRow) string {
	fan := 0.0
	if r.Srcs > 0 {
		fan = float64(r.Count) / float64(r.Srcs)
	}
	return fmt.Sprintf("%s -%s-> %s: count=%d srcs=%d dsts=%d fanOut=%.2f",
		r.Src, r.Edge, r.Dst, r.Count, r.Srcs, r.Dsts, fan)
}
