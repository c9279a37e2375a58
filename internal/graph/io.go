package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/scan"
)

// The text format is line oriented:
//
//	graph <numNodes>
//	n <id> <label>
//	e <from> <to> <label>
//
// Node lines must precede edge lines that reference them; ids must be the
// dense 0..numNodes-1 range in order. Lines starting with '#' are comments.

// WriteTo serializes g in the text format. It returns the number of bytes
// written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	if err := count(fmt.Fprintf(bw, "graph %d\n", g.NumNodes())); err != nil {
		return n, err
	}
	for v := 0; v < g.NumNodes(); v++ {
		if err := count(fmt.Fprintf(bw, "n %d %s\n", v, scan.Quote(g.NodeLabelName(NodeID(v))))); err != nil {
			return n, err
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.out[v] {
			if err := count(fmt.Fprintf(bw, "e %d %d %s\n", v, e.To, scan.Quote(g.interner.Name(e.Label)))); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// Read parses a graph in the text format and finalizes it. The input may
// come from the network: a header declaring more than maxSize nodes is
// refused before anything is built (math.MaxInt for a trusted source), and
// nothing is allocated from the declared count, only from the lines present.
func Read(r io.Reader, maxSize int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields, err := scan.Fields(text)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		switch fields[0] {
		case "graph":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed header", line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, fields[1])
			}
			if n > maxSize {
				return nil, fmt.Errorf("graph: line %d: %d nodes exceed the size cap %d", line, n, maxSize)
			}
			g = New(0)
		case "n":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: node before header", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed node line", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id != g.NumNodes() {
				return nil, fmt.Errorf("graph: line %d: node ids must be dense and in order", line)
			}
			g.AddNode(fields[2])
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before header", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: malformed edge line", line)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil ||
				from < 0 || from >= g.NumNodes() || to < 0 || to >= g.NumNodes() {
				return nil, fmt.Errorf("graph: line %d: bad edge endpoints", line)
			}
			g.AddEdge(NodeID(from), NodeID(to), fields[3])
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	g.Finalize()
	return g, nil
}
