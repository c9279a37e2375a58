package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/scan"
)

// The text format is line oriented:
//
//	graph <numNodes>
//	n <id> <label>
//	e <from> <to> <label>
//
// The header comes once, first. Node lines must precede edge lines that
// reference them; their ids must be the dense 0..numNodes-1 range in
// order, all of it. Lines starting with '#' are comments.

// WriteTo serializes g in the text format. It returns the number of bytes
// written. Lines are appended to one buffer, handed to w whenever it
// passes 64 KiB, and each label is quoted once, not once per line.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	const chunk = 64 << 10
	buf := make([]byte, 0, chunk+256) // room for the line that crosses the mark
	var n int64
	flush := func() error {
		c, err := w.Write(buf)
		n += int64(c)
		buf = buf[:0]
		return err
	}
	quoted := make([]string, g.interner.Len())
	label := func(l LabelID) string {
		if quoted[l] == "" { // a quoted label is never empty: "" quotes as `""`
			quoted[l] = scan.Quote(g.interner.Name(l))
		}
		return quoted[l]
	}
	buf = strconv.AppendInt(append(buf, "graph "...), int64(g.NumNodes()), 10)
	buf = append(buf, '\n')
	for v, l := range g.nodeLabel {
		buf = strconv.AppendInt(append(buf, "n "...), int64(v), 10)
		buf = append(append(append(buf, ' '), label(l)...), '\n')
		if len(buf) >= chunk {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
	for v, row := range g.out {
		for _, e := range row {
			buf = strconv.AppendInt(append(buf, "e "...), int64(v), 10)
			buf = strconv.AppendInt(append(buf, ' '), int64(e.To), 10)
			buf = append(append(append(buf, ' '), label(e.Label)...), '\n')
			if len(buf) >= chunk {
				if err := flush(); err != nil {
					return n, err
				}
			}
		}
	}
	return n, flush()
}

// Read parses a graph in the text format and finalizes it. The input may
// come from the network: a header declaring more than maxSize nodes is
// refused before anything is built (math.MaxInt for a trusted source), as
// is a second header or a node-line count other than the header's, and
// nothing is allocated from the declared count, only from the lines
// present. The edges go to one list, built into rows at the end.
func Read(r io.Reader, maxSize int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var (
		g        *Graph
		declared int
		edges    []srcEdge
		fields   [][]byte
	)
	line := 0
	for sc.Scan() {
		line++
		var err error
		if fields, err = splitLine(sc.Bytes(), fields[:0]); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if len(fields) == 0 {
			continue
		}
		switch string(fields[0]) {
		case "graph":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: second header", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed header", line)
			}
			n, err := atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, fields[1])
			}
			if n > maxSize {
				return nil, fmt.Errorf("graph: line %d: %d nodes exceed the size cap %d", line, n, maxSize)
			}
			g, declared = &Graph{}, n
		case "n":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: node before header", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed node line", line)
			}
			id, err := atoi(fields[1])
			if err != nil || id != g.NumNodes() {
				return nil, fmt.Errorf("graph: line %d: node ids must be dense and in order", line)
			}
			if id >= declared {
				return nil, fmt.Errorf("graph: line %d: more node lines than the header's %d", line, declared)
			}
			g.nodeLabel = append(g.nodeLabel, g.interner.internBytes(fields[2]))
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before header", line)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: malformed edge line", line)
			}
			from, err1 := atoi(fields[1])
			to, err2 := atoi(fields[2])
			if err1 != nil || err2 != nil ||
				from < 0 || from >= g.NumNodes() || to < 0 || to >= g.NumNodes() {
				return nil, fmt.Errorf("graph: line %d: bad edge endpoints", line)
			}
			edges = append(edges, srcEdge{NodeID(from), Edge{NodeID(to), g.interner.internBytes(fields[3])}})
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
	if g.NumNodes() != declared {
		return nil, fmt.Errorf("graph: the header declares %d nodes, %d node lines follow", declared, g.NumNodes())
	}
	g.build(scatter(len(g.nodeLabel), edges))
	return g, nil
}

// splitLine appends the fields of a line to dst; a blank line or a
// comment has none. A plain ASCII line without a quote is split in place;
// any other goes through TrimSpace and scan.Fields.
func splitLine(b []byte, dst [][]byte) ([][]byte, error) {
	i := 0
	for i < len(b) && asciiSpace(b[i]) {
		i++
	}
	if i < len(b) && b[i] == '#' {
		return dst, nil
	}
	for i < len(b) {
		j := i
		for ; j < len(b) && !asciiSpace(b[j]); j++ {
			if c := b[j]; c == '"' || c >= utf8.RuneSelf {
				return splitFields(b, dst[:0])
			}
		}
		dst = append(dst, b[i:j])
		for i = j; i < len(b) && asciiSpace(b[i]); i++ {
		}
	}
	return dst, nil
}

// splitFields is splitLine for a line that quotes a field or holds a
// non-ASCII byte.
func splitFields(b []byte, dst [][]byte) ([][]byte, error) {
	text := strings.TrimSpace(string(b))
	if text == "" || text[0] == '#' {
		return dst, nil
	}
	fields, err := scan.Fields(text)
	if err != nil {
		return nil, err
	}
	for _, f := range fields {
		dst = append(dst, []byte(f))
	}
	return dst, nil
}

// asciiSpace reports whether c is one of the bytes unicode.IsSpace holds
// for below utf8.RuneSelf.
func asciiSpace(c byte) bool {
	return c == ' ' || c-'\t' <= '\r'-'\t'
}

// atoi is strconv.Atoi, without the string for a field of a few digits.
func atoi(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 9 {
		return strconv.Atoi(string(b))
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(b))
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}
