package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
func ReadBinary(r io.Reader, maxSize int) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	get := func() (uint64, error) { return binary.ReadUvarint(br) }

	nLabels, err := get()
	if err != nil {
		return nil, fmt.Errorf("graph: label count: %w", err)
	}
	if nLabels > 1<<24 {
		return nil, fmt.Errorf("graph: implausible label count %d", nLabels)
	}
	g := New(0)
	for i := uint64(0); i < nLabels; i++ {
		ln, err := get()
		if err != nil {
			return nil, fmt.Errorf("graph: label %d length: %w", i, err)
		}
		if ln > 1<<20 {
			return nil, fmt.Errorf("graph: implausible label length %d", ln)
		}
		buf := make([]byte, ln)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("graph: label %d: %w", i, err)
		}
		if got := g.Label(string(buf)); got != LabelID(i) {
			return nil, fmt.Errorf("graph: duplicate label %q in table", buf)
		}
	}

	nNodes, err := get()
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
		l, err := get()
		if err != nil {
			return nil, fmt.Errorf("graph: node %d: %w", i, err)
		}
		if l >= nLabels {
			return nil, fmt.Errorf("graph: node %d has label %d of %d", i, l, nLabels)
		}
		g.AddNodeLabel(LabelID(l))
	}

	nEdges, err := get()
	if err != nil {
		return nil, fmt.Errorf("graph: edge count: %w", err)
	}
	if nEdges > uint64(maxSize)-nNodes {
		return nil, fmt.Errorf("graph: %d nodes and %d edges exceed the size cap %d", nNodes, nEdges, maxSize)
	}
	prev := uint64(0)
	for i := uint64(0); i < nEdges; i++ {
		delta, err := get()
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
		from := prev + delta
		prev = from
		to, err := get()
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d target: %w", i, err)
		}
		l, err := get()
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d label: %w", i, err)
		}
		if from >= nNodes || to >= nNodes || l >= nLabels {
			return nil, fmt.Errorf("graph: edge %d out of range", i)
		}
		g.AddEdgeLabel(NodeID(from), NodeID(to), LabelID(l))
	}
	g.Finalize()
	return g, nil
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
