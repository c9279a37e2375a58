package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary format: a compact serialization for large graphs (the text format
// is human-readable but ~5x larger and slower to parse).
//
//	magic   [4]byte  "QGP1"
//	labels  uvarint, then per label: uvarint length + bytes
//	nodes   uvarint, then per node: uvarint label id
//	edges   uvarint, then per edge: uvarint from, uvarint to, uvarint label
//
// Edges are delta-encoded by source: sources are non-decreasing and each
// source is stored as a delta from the previous one.

var binaryMagic = [4]byte{'Q', 'G', 'P', '1'}

// WriteBinary serializes g in the binary format.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	put := func(x uint64) error {
		n := binary.PutUvarint(scratch[:], x)
		_, err := bw.Write(scratch[:n])
		return err
	}

	if err := put(uint64(g.interner.Len())); err != nil {
		return err
	}
	for i := 0; i < g.interner.Len(); i++ {
		name := g.interner.Name(LabelID(i))
		if err := put(uint64(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
	}

	if err := put(uint64(g.NumNodes())); err != nil {
		return err
	}
	for _, l := range g.nodeLabel {
		if err := put(uint64(l)); err != nil {
			return err
		}
	}

	if err := put(uint64(g.NumEdges())); err != nil {
		return err
	}
	prev := uint64(0)
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.out[v] {
			if err := put(uint64(v) - prev); err != nil {
				return err
			}
			prev = uint64(v)
			if err := put(uint64(e.To)); err != nil {
				return err
			}
			if err := put(uint64(e.Label)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses a graph in the binary format and finalizes it. The
// input may come from the network: maxSize bounds |V|+|E| as the stream
// declares them, so an over-cap graph is refused from its counts, before
// its nodes or edges are read (math.MaxInt for a trusted source), and
// nothing is allocated from a declared count, only from bytes present.
// The edges go to one list, built into rows at the end.
func ReadBinary(r io.Reader, maxSize int) (*Graph, error) {
	d := &decoder{r: r, buf: make([]byte, 32<<10)}
	magic, err := d.read(make([]byte, 0, 4), 4)
	if err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if [4]byte(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}

	nLabels, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graph: label count: %w", err)
	}
	if nLabels > 1<<24 {
		return nil, fmt.Errorf("graph: implausible label count %d", nLabels)
	}
	g := &Graph{}
	var name []byte
	for i := uint64(0); i < nLabels; i++ {
		ln, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("graph: label %d length: %w", i, err)
		}
		if ln > 1<<20 {
			return nil, fmt.Errorf("graph: implausible label length %d", ln)
		}
		if name, err = d.read(name[:0], int(ln)); err != nil {
			return nil, fmt.Errorf("graph: label %d: %w", i, err)
		}
		if got := g.interner.internBytes(name); got != LabelID(i) {
			return nil, fmt.Errorf("graph: duplicate label %q in table", name)
		}
	}

	nNodes, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graph: node count: %w", err)
	}
	if nNodes > 1<<31 {
		return nil, fmt.Errorf("graph: implausible node count %d", nNodes)
	}
	if nNodes > uint64(maxSize) {
		return nil, fmt.Errorf("graph: %d nodes exceed the size cap %d", nNodes, maxSize)
	}
	for i := uint64(0); i < nNodes; i++ {
		l, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("graph: node %d: %w", i, err)
		}
		if l >= nLabels {
			return nil, fmt.Errorf("graph: node %d has label %d of %d", i, l, nLabels)
		}
		g.nodeLabel = append(grow(g.nodeLabel, nNodes-i), LabelID(l))
	}

	nEdges, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("graph: edge count: %w", err)
	}
	if nEdges > uint64(maxSize)-nNodes {
		return nil, fmt.Errorf("graph: %d nodes and %d edges exceed the size cap %d", nNodes, nEdges, maxSize)
	}
	var edges []srcEdge
	prev := uint64(0)
	for i := uint64(0); i < nEdges; i++ {
		delta, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		from := prev + delta
		prev = from
		to, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d target: %w", i, err)
		}
		l, err := d.uvarint()
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d label: %w", i, err)
		}
		if from >= nNodes || to >= nNodes || l >= nLabels {
			return nil, fmt.Errorf("graph: edge %d out of range", i)
		}
		edges = append(grow(edges, nEdges-i), srcEdge{NodeID(from), Edge{NodeID(to), LabelID(l)}})
	}
	g.build(scatter(len(g.nodeLabel), edges))
	return g, nil
}

// grow makes room in a full list for at least one more entry and at most
// left more, doubling it: the list grows with the entries present and, for
// an honest stream, ends at the count it declared.
func grow[T any](s []T, left uint64) []T {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, int(min(max(uint64(len(s)), 1024), left)))
}

// decoder reads the binary format through a buffer of its own: a varint
// lying whole in the buffer is decoded there, one the buffer cuts byte by
// byte. Like a bufio.Reader it reads from r once per refill, and only when
// the buffer is drained, so it never waits for bytes the graph does not
// need.
type decoder struct {
	r        io.Reader
	buf      []byte
	pos, end int
	err      error // r's error, returned once the buffer is drained
}

var errOverflow = errors.New("varint overflows a 64-bit integer")

// fill moves the unread bytes to the front of the buffer and reads once
// behind them.
func (d *decoder) fill() {
	if d.err != nil {
		return
	}
	d.end = copy(d.buf, d.buf[d.pos:d.end])
	d.pos = 0
	for range 100 {
		n, err := d.r.Read(d.buf[d.end:])
		d.end += n
		if err != nil {
			d.err = err
			return
		}
		if n > 0 {
			return
		}
	}
	d.err = io.ErrNoProgress
}

// ReadByte makes the decoder an io.ByteReader for binary.ReadUvarint.
func (d *decoder) ReadByte() (byte, error) {
	if d.pos == d.end {
		if d.fill(); d.pos == d.end {
			return 0, d.err
		}
	}
	c := d.buf[d.pos]
	d.pos++
	return c, nil
}

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.buf[d.pos:d.end])
	switch {
	case n > 0:
		d.pos += n
		return x, nil
	case n < 0:
		return 0, errOverflow
	}
	// The buffer ends inside the varint: finish it a byte, and a refill,
	// at a time.
	return binary.ReadUvarint(d)
}

// read appends the next n bytes to dst.
func (d *decoder) read(dst []byte, n int) ([]byte, error) {
	for len(dst) < n {
		if d.pos == d.end {
			if d.fill(); d.pos == d.end {
				if d.err == io.EOF {
					return nil, io.ErrUnexpectedEOF
				}
				return nil, d.err
			}
		}
		k := min(n-len(dst), d.end-d.pos)
		dst = append(dst, d.buf[d.pos:d.pos+k]...)
		d.pos += k
	}
	return dst, nil
}

// ReadAuto detects the serialization format (binary magic vs. text) and
// parses accordingly.
func ReadAuto(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err == nil && [4]byte(head) == binaryMagic {
		return ReadBinary(br, math.MaxInt)
	}
	return Read(br, math.MaxInt)
}
