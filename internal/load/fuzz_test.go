package load

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
)

// edgeSet is a loaded graph's edge relation over external ids: one
// "from\x00to\x00label" key per edge, ascending.
func edgeSet(res *Result) []string {
	g := res.Graph
	var out []string
	for v := range g.NumNodes() {
		for _, e := range g.Out(graph.NodeID(v)) {
			out = append(out, fmt.Sprintf("%s\x00%s\x00%s", res.IDs[v], res.IDs[e.To], g.LabelName(e.Label)))
		}
	}
	slices.Sort(out)
	return out
}

// FuzzCSV: the edge-list reader, with the label column qgpmatch reads, never
// panics, and an edge list it accepts keeps its edge relation over external
// ids through writeCSV and a second read.
func FuzzCSV(f *testing.F) {
	for _, s := range []string{
		"alice,bob,follow\nbob,carol,follow\nalice,carol,like\n",
		"a,b\n", ",b,x\n", "a,b,\n", "a , b ,  x \n\n \n",
		`"a,1","b""2",x` + "\n", `"multi` + "\n" + `line",b,"l,l"` + "\n",
		"a,b,x\r\nb,a,x\r\n", "a,\"b\r\nc\",x\n", "a\"b,c,x\n", "\xff,\xfe,\x00\n",
		`\.,b,x` + "\n", "1,2,x\n2,1,x\n1,2,x\n1,1,y\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := CSVOptions{LabelCol: 2}
		res, err := CSV(bytes.NewReader(data), opts)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeCSV(&buf, res.Graph, res.IDs); err != nil {
			t.Fatalf("write %q: %v", data, err)
		}
		again, err := CSV(bytes.NewReader(buf.Bytes()), opts)
		if err != nil {
			t.Fatalf("%q written as %q, which reads back as %v", data, buf.Bytes(), err)
		}
		if want, got := edgeSet(res), edgeSet(again); !slices.Equal(want, got) {
			t.Fatalf("%q written as %q: edges %q, read back %q", data, buf.Bytes(), want, got)
		}
	})
}

// FuzzJSON: the property-graph reader behind inline load requests never
// panics, and a document it accepts keeps its nodes — external ids and
// labels, in order — and its edge relation through writeJSON and a second
// read.
func FuzzJSON(f *testing.F) {
	for _, s := range []string{
		`{"nodes":[{"id":"alice","label":"Person"},{"id":"redmi","label":"Product"}],"edges":[{"from":"alice","to":"redmi","label":"buy"}]}`,
		`{"nodes":[{"id":"a","label":"X"},{"id":"n0","label":"X"}],"edges":[{"from":"a","to":"a","label":"e"},{"from":"a","to":"a","label":"e"}]}`,
		`{"nodes":[],"edges":[]}`, `{}`, `null`, `{"nodes":[}`, `{"nodes":[],"edges":[],"extra":1}`,
		`{"nodes":[{"id":"","label":"X"}]}`, `{"nodes":[{"id":"a","label":"X"},{"id":"a","label":"X"}]}`,
		`{"nodes":[{"id":"a","label":"X"}],"edges":[{"from":"z","to":"a","label":"e"}]}`,
		`{"nodes":[{"id":"<&> ","label":"é"}],"edges":[{"from":"<&> ","to":"<&> ","label":"\""}]}`,
		"{\"nodes\":[{\"id\":\"\xff\",\"label\":\"X\"},{\"id\":\"\xfe\",\"label\":\"X\"}]}",
		`{"nodes":[{"id":"a","label":"X"}]} trailing`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := JSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeJSON(&buf, res.Graph, res.IDs); err != nil {
			t.Fatalf("write %q: %v", data, err)
		}
		again, err := JSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%q written as %s, which reads back as %v", data, buf.Bytes(), err)
		}
		labels := func(r *Result) []string {
			out := make([]string, r.Graph.NumNodes())
			for v := range out {
				out[v] = r.Graph.NodeLabelName(graph.NodeID(v))
			}
			return out
		}
		if !slices.Equal(res.IDs, again.IDs) || !slices.Equal(labels(res), labels(again)) {
			t.Fatalf("%q written as %s: nodes %q %q, read back %q %q", data, buf.Bytes(), res.IDs, labels(res), again.IDs, labels(again))
		}
		if want, got := edgeSet(res), edgeSet(again); !slices.Equal(want, got) {
			t.Fatalf("%q written as %s: edges %q, read back %q", data, buf.Bytes(), want, got)
		}
	})
}
