package server

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/stats"
)

// This file is the ONE code path that turns graph statistics into a
// stats response. The single server and the cluster front end's fan-out
// merge both land in FillStatsRows, so the TopK cap, the row ordering and
// the rendered string format cannot drift between deployment shapes.

// StatsTopK resolves a stats request's TopK: non-positive takes the
// historical default of 10 rendered triple classes.
func StatsTopK(k int) int {
	if k <= 0 {
		return 10
	}
	return k
}

// StatsRows converts a collected summary to structured, name-based
// rows (every class, unordered — FillStatsRows sorts) plus the sorted
// names of the labels present.
func StatsRows(g *graph.Graph, st *stats.Stats) (rows []TripleRow, labels []string) {
	rows = make([]TripleRow, 0, len(st.Triples))
	for t, ts := range st.Triples {
		rows = append(rows, TripleRow{
			Src: g.LabelName(t.Src), Edge: g.LabelName(t.Edge), Dst: g.LabelName(t.Dst),
			Count: ts.Count, Srcs: ts.SrcNodes, Dsts: ts.DstNodes,
		})
	}
	labels = make([]string, 0, len(st.LabelCount))
	for l, n := range st.LabelCount {
		if n > 0 {
			labels = append(labels, g.LabelName(l))
		}
	}
	sort.Strings(labels)
	return rows, labels
}

// FillStats renders one graph's summary into a response — the
// single-process path. topK caps only the rendered Triples strings;
// the structured rows stay complete.
func FillStats(resp *Response, g *graph.Graph, st *stats.Stats, topK int) {
	rows, labels := StatsRows(g, st)
	FillStatsRows(resp, st.Nodes, st.Edges, labels, rows, topK)
}

// FillStatsRows fills a stats response from structured rows, sorting
// them by descending count with name ties ascending (deterministic
// regardless of which worker contributed what), applying the TopK cap
// to the rendered strings.
func FillStatsRows(resp *Response, nodes, edges int, labels []string, rows []TripleRow, topK int) {
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
	resp.Nodes, resp.Edges = nodes, edges
	resp.Labels = len(labels)
	resp.LabelNames = labels
	resp.TripleRows = rows
	k := StatsTopK(topK)
	if k > len(rows) {
		k = len(rows)
	}
	for _, r := range rows[:k] {
		resp.Triples = append(resp.Triples, DescribeRow(r))
	}
}

// DescribeRow renders one triple row in the exact format of
// stats.Describe, so wire output is stable across the refactor.
func DescribeRow(r TripleRow) string {
	fan := 0.0
	if r.Srcs > 0 {
		fan = float64(r.Count) / float64(r.Srcs)
	}
	return fmt.Sprintf("%s -%s-> %s: count=%d srcs=%d dsts=%d fanOut=%.2f",
		r.Src, r.Edge, r.Dst, r.Count, r.Srcs, r.Dsts, fan)
}
