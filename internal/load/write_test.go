package load

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/graph"
)

// writeCSV writes g as a "from,to,label" edge list, naming node v ids[v]
// when that is set and its numeric id otherwise: what CSV reads back.
func writeCSV(w io.Writer, g *graph.Graph, ids []string) error {
	cw := csv.NewWriter(w)
	for v := range graph.NodeID(g.NumNodes()) {
		for _, e := range g.Out(v) {
			if err := cw.Write([]string{nodeName(ids, v, ""), nodeName(ids, e.To, ""), g.LabelName(e.Label)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeJSON writes g as a JSON property-graph document, naming node v
// ids[v] when that is set and "n<v>" otherwise: what JSON reads back.
func writeJSON(w io.Writer, g *graph.Graph, ids []string) error {
	doc := &JSONGraph{}
	for v := range graph.NodeID(g.NumNodes()) {
		doc.Nodes = append(doc.Nodes, JSONNode{ID: nodeName(ids, v, "n"), Label: g.NodeLabelName(v)})
		for _, e := range g.Out(v) {
			doc.Edges = append(doc.Edges, JSONEdge{From: nodeName(ids, v, "n"), To: nodeName(ids, e.To, "n"), Label: g.LabelName(e.Label)})
		}
	}
	return json.NewEncoder(w).Encode(doc)
}

func nodeName(ids []string, v graph.NodeID, prefix string) string {
	if int(v) < len(ids) && ids[v] != "" {
		return ids[v]
	}
	return fmt.Sprintf("%s%d", prefix, v)
}
