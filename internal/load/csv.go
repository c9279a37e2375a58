// Package load reads and writes graphs in common interchange formats:
// CSV/TSV edge lists (the format of public datasets such as SNAP's Pokec
// dump the paper evaluates on) and a JSON property-graph document. Node
// ids in these formats are arbitrary strings; loaders intern them densely
// in first-appearance order and return the mapping, so external ids
// survive a round trip.
package load

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"repro/internal/graph"
)

// CSVOptions controls the edge-list reader.
type CSVOptions struct {
	// Comma is the field separator; 0 means ',' (use '\t' for TSV).
	Comma rune
	// HasHeader skips the first record.
	HasHeader bool
	// FromCol and ToCol are the 0-based columns of the edge endpoints.
	FromCol, ToCol int
	// LabelCol is the 0-based column of the edge label. Values ≤ 0
	// disable it (column 0 is always an endpoint in supported layouts)
	// and every edge gets DefaultEdgeLabel.
	LabelCol int
	// DefaultEdgeLabel is the edge label when LabelCol ≤ 0 (default "edge").
	DefaultEdgeLabel string
	// NodeLabelCol, when > 0, is a column giving the *source* node's
	// label; nodes first seen as targets keep DefaultNodeLabel.
	NodeLabelCol int
	// DefaultNodeLabel is the label of nodes without one (default "node").
	DefaultNodeLabel string
	// Comment, when nonzero, makes lines starting with it skipped.
	Comment rune
}

// Result is a loaded graph with the external-id mapping.
type Result struct {
	Graph *graph.Graph
	// IDs[v] is the external id of node v.
	IDs []string
	// Index maps external ids back to node ids.
	Index map[string]graph.NodeID
}

// CSV reads an edge list. Malformed rows produce errors carrying the
// 1-based line number.
func CSV(r io.Reader, opts CSVOptions) (*Result, error) {
	if opts.Comma == 0 {
		opts.Comma = ','
	}
	if opts.DefaultEdgeLabel == "" {
		opts.DefaultEdgeLabel = "edge"
	}
	if opts.DefaultNodeLabel == "" {
		opts.DefaultNodeLabel = "node"
	}
	if opts.FromCol == 0 && opts.ToCol == 0 {
		// Zero value: the conventional "from,to[,label]" layout.
		opts.ToCol = 1
	}
	if opts.FromCol < 0 || opts.ToCol < 0 {
		return nil, fmt.Errorf("load: negative endpoint column")
	}
	if opts.FromCol == opts.ToCol {
		return nil, fmt.Errorf("load: FromCol and ToCol are both %d", opts.FromCol)
	}
	cr := csv.NewReader(r)
	cr.Comma = opts.Comma
	cr.Comment = opts.Comment
	cr.FieldsPerRecord = -1 // validated per row below
	cr.TrimLeadingSpace = true

	res := &Result{Graph: graph.New(0), Index: make(map[string]graph.NodeID)}
	need := opts.FromCol
	for _, c := range []int{opts.ToCol, opts.LabelCol, opts.NodeLabelCol} {
		if c > need {
			need = c
		}
	}

	intern := func(id, label string) graph.NodeID {
		if v, ok := res.Index[id]; ok {
			return v
		}
		v := res.Graph.AddNode(label)
		res.Index[id] = v
		res.IDs = append(res.IDs, id)
		return v
	}

	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("load: line %d: %w", line, err)
		}
		if opts.HasHeader && line == 1 {
			continue
		}
		if len(rec) == 1 && strings.TrimSpace(rec[0]) == "" {
			continue
		}
		if len(rec) <= need {
			return nil, fmt.Errorf("load: line %d: %d fields, need at least %d", line, len(rec), need+1)
		}
		fromID := strings.TrimSpace(rec[opts.FromCol])
		toID := strings.TrimSpace(rec[opts.ToCol])
		if fromID == "" || toID == "" {
			return nil, fmt.Errorf("load: line %d: empty endpoint id", line)
		}
		srcLabel := opts.DefaultNodeLabel
		if opts.NodeLabelCol > 0 {
			srcLabel = strings.TrimSpace(rec[opts.NodeLabelCol])
		}
		label := opts.DefaultEdgeLabel
		if opts.LabelCol > 0 {
			label = strings.TrimSpace(rec[opts.LabelCol])
			if label == "" {
				return nil, fmt.Errorf("load: line %d: empty edge label", line)
			}
		}
		// A quoted "\r\r\n" reads as "\r\n", which no edge list can hold:
		// written back, it would read as "\n" and name another node.
		for _, s := range []string{fromID, toID, label} {
			if strings.Contains(s, "\r\n") {
				return nil, fmt.Errorf("load: line %d: %q holds a CR LF pair, which WriteCSV cannot write back", line, s)
			}
		}
		res.Graph.AddEdge(intern(fromID, srcLabel), intern(toID, opts.DefaultNodeLabel), label)
	}
	res.Graph.Finalize()
	return res, nil
}

// WriteCSV writes the graph as a "from,to,label" edge list using the
// external ids when provided (ids[v] == "" or ids == nil falls back to
// the numeric id).
func WriteCSV(w io.Writer, g *graph.Graph, ids []string) error {
	cw := csv.NewWriter(w)
	name := func(v graph.NodeID) string {
		if int(v) < len(ids) && ids[v] != "" {
			return ids[v]
		}
		return fmt.Sprint(int(v))
	}
	for vi := 0; vi < g.NumNodes(); vi++ {
		v := graph.NodeID(vi)
		for _, e := range g.Out(v) {
			if err := cw.Write([]string{name(v), name(e.To), g.LabelName(e.Label)}); err != nil {
				return fmt.Errorf("load: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
