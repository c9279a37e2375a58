package load

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/graph"
)

// JSONGraph is the JSON property-graph document:
//
//	{
//	  "nodes": [{"id": "alice", "label": "Person"}, ...],
//	  "edges": [{"from": "alice", "to": "bob", "label": "follow"}, ...]
//	}
//
// Node ids are unique non-empty strings; edges may only reference declared
// nodes (unlike CSV, the JSON format is schema-first).
type JSONGraph struct {
	Nodes []JSONNode `json:"nodes"`
	Edges []JSONEdge `json:"edges"`
}

// JSONNode declares a node.
type JSONNode struct {
	ID    string `json:"id"`
	Label string `json:"label"`
}

// JSONEdge declares an edge.
type JSONEdge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Label string `json:"label"`
}

// JSON reads a property-graph document.
func JSON(r io.Reader) (*Result, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var doc JSONGraph
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("load: json: %w", err)
	}
	return FromDocument(&doc)
}

// FromDocument builds a graph from an in-memory document.
func FromDocument(doc *JSONGraph) (*Result, error) {
	res := &Result{Graph: graph.New(len(doc.Nodes)), Index: make(map[string]graph.NodeID, len(doc.Nodes))}
	for i, n := range doc.Nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("load: json: node %d has empty id", i)
		}
		if n.Label == "" {
			return nil, fmt.Errorf("load: json: node %q has empty label", n.ID)
		}
		if _, dup := res.Index[n.ID]; dup {
			return nil, fmt.Errorf("load: json: duplicate node id %q", n.ID)
		}
		v := res.Graph.AddNode(n.Label)
		res.Index[n.ID] = v
		res.IDs = append(res.IDs, n.ID)
	}
	for i, e := range doc.Edges {
		from, ok := res.Index[e.From]
		if !ok {
			return nil, fmt.Errorf("load: json: edge %d references undeclared node %q", i, e.From)
		}
		to, ok := res.Index[e.To]
		if !ok {
			return nil, fmt.Errorf("load: json: edge %d references undeclared node %q", i, e.To)
		}
		if e.Label == "" {
			return nil, fmt.Errorf("load: json: edge %d has empty label", i)
		}
		res.Graph.AddEdge(from, to, e.Label)
	}
	res.Graph.Finalize()
	return res, nil
}
