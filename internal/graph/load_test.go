package graph_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// loadGraph is the graph the load path is pinned and measured on: the
// social generator at 6 000 persons, DPar'd over 2 workers at d=2.
func loadGraph(tb testing.TB) (*graph.Graph, *partition.Partition) {
	tb.Helper()
	g := gen.Social(gen.DefaultSocial(6000, 1))
	p, err := partition.DPar(g, partition.Config{Workers: 2, D: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return g, p
}

func hashOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		if err := binary.Write(h, binary.LittleEndian, p); err != nil {
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLoadShipsParentBytes pins the load path's output on the 6 000-person
// graph: DPar's fragments (nodes, owned nodes, size and work), the bytes
// each fragment ships as (InducedOf, then WriteBinary), and the graph the
// text reader makes of WriteTo's text. The hashes were taken before the
// counting build replaced the append-and-sort one; the load must ship
// byte for byte what it shipped then, and the graphs a worker and the
// coordinator hold must equal the reference readers' in full.
func TestLoadShipsParentBytes(t *testing.T) {
	want := []struct{ part, ship string }{
		{"bfe0f0a433c91e0f37ca5cecc0e9f34784da024cd3c8c899b01ec9b45cfd5e90", "b9029a1c545b707b3a47c068cd6cdae5dbb37d9db94cde927ee80146e6cfa2c1"},
		{"79b03a9092ff355480c03c56f19cdcf3b3574d761894b0ad1a2cebdfab2635eb", "5e75fed3fe1b93d39c605c5ba6fe264058d8ba82b0e80a70f2de004030507641"},
	}
	const reread = "5e75fed3fe1b93d39c605c5ba6fe264058d8ba82b0e80a70f2de004030507641"
	g, p := loadGraph(t)
	if len(p.Fragments) != len(want) {
		t.Fatalf("%d fragments, want %d", len(p.Fragments), len(want))
	}
	for i, f := range p.Fragments {
		if got := hashOf(f.Nodes, f.Owned, int64(f.Size), int64(f.Work)); got != want[i].part {
			t.Errorf("fragment %d: partition hash %s, want %s", i, got, want[i].part)
		}
		sub, _ := graph.InducedOf(g, f.Nodes)
		ship := encode(t, sub)
		if got := hashOf(ship); got != want[i].ship {
			t.Errorf("fragment %d: shipped bytes hash %s, want %s", i, got, want[i].ship)
		}
		// What the worker holds: the reference's graph, in-rows and all.
		got, err := graph.ReadBinary(bytes.NewReader(ship), math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := graph.ReferenceReadBinary(bytes.NewReader(ship), math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.SameBuild(got, ref); err != nil {
			t.Errorf("fragment %d: ReadBinary and the reference differ: %v", i, err)
		}
	}
	var text bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		t.Fatal(err)
	}
	h, err := graph.Read(bytes.NewReader(text.Bytes()), math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashOf(encode(t, h)); got != reread {
		t.Errorf("WriteTo → Read → WriteBinary hash %s, want %s", got, reread)
	}
	ref, err := graph.ReferenceRead(&text, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.SameBuild(h, ref); err != nil {
		t.Errorf("Read and the reference differ: %v", err)
	}
}

func encode(tb testing.TB, g *graph.Graph) []byte {
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkLoad times the three steps of loading and shipping a graph:
// the text reader on the 6 000-person graph, InducedOf cutting DPar's
// first fragment, and base64 plus ReadBinary decoding that fragment's
// bytes, as a worker receives them.
func BenchmarkLoad(b *testing.B) {
	g, p := loadGraph(b)
	var text bytes.Buffer
	if _, err := g.WriteTo(&text); err != nil {
		b.Fatal(err)
	}
	frag := p.Fragments[0].Nodes
	sub, _ := graph.InducedOf(g, frag)
	ship := base64.StdEncoding.EncodeToString(encode(b, sub))
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := graph.Read(bytes.NewReader(text.Bytes()), math.MaxInt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("induced", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			graph.InducedOf(g, frag)
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := graph.ReadBinary(base64.NewDecoder(base64.StdEncoding, strings.NewReader(ship)), math.MaxInt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWriteToMatchesReference: the append writer writes the bytes the
// fmt writer wrote, over the generators' graphs (one left unfinalized,
// rows in insertion order and with repeats) and over labels that must be
// quoted — empty, spaced, holding a quote, a backslash, a control byte or
// invalid UTF-8 — beside ones that need not be.
func TestWriteToMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"empty":     graph.New(0),
		"social":    gen.Social(gen.DefaultSocial(1500, 2)),
		"knowledge": gen.Knowledge(gen.DefaultKnowledge(800, 3)),
		"smallw":    gen.SmallWorld(gen.SmallWorldConfig{Nodes: 3000, Edges: 9000, Seed: 4}),
		"replayed":  replay(gen.Social(gen.DefaultSocial(300, 5)), rand.New(rand.NewSource(5))),
	}
	labels := []string{"", " ", "a b", `say"hi"`, `back\slash`, "tab\there", "bell\x07", "\xff\xfe", "zero\x00", "über", "日本", "plain", "#hash", "e"}
	q := graph.New(len(labels))
	for _, l := range labels {
		q.AddNode(l)
	}
	for i, l := range labels {
		q.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%len(labels)), l)
		q.AddEdge(graph.NodeID(i), graph.NodeID((i+3)%len(labels)), labels[(i+5)%len(labels)])
	}
	q.Finalize()
	graphs["quoted"] = q
	for name, g := range graphs {
		var got, want bytes.Buffer
		n, err := g.WriteTo(&got)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := graph.ReferenceWriteTo(g, &want); err != nil {
			t.Fatal(err)
		}
		if n != int64(got.Len()) {
			t.Errorf("%s: WriteTo reported %d bytes and wrote %d", name, n, got.Len())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			a, b := got.Bytes(), want.Bytes()
			i := 0
			for i < min(len(a), len(b)) && a[i] == b[i] {
				i++
			}
			t.Fatalf("%s: %d bytes against the reference's %d, first difference at byte %d:\n got %q\nwant %q",
				name, len(a), len(b), i, a[i:min(i+40, len(a))], b[i:min(i+40, len(b))])
		}
	}
}

// BenchmarkWriteTo times the text writer on the 6 000-person social graph,
// the text the benchmark's cold start writes before loading it.
func BenchmarkWriteTo(b *testing.B) {
	g := gen.Social(gen.DefaultSocial(6000, 1))
	var text bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		text.Reset()
		if _, err := g.WriteTo(&text); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(text.Len()))
}

// replay rebuilds g unfinalized through the public building calls: its
// edges in row order, or, with r, shuffled and with every seventh one
// added twice.
func replay(g *graph.Graph, r *rand.Rand) *graph.Graph {
	type edge struct {
		from, to graph.NodeID
		label    string
	}
	var es []edge
	for v := range graph.NodeID(g.NumNodes()) {
		for _, e := range g.Out(v) {
			es = append(es, edge{v, e.To, g.LabelName(e.Label)})
		}
	}
	if r != nil {
		r.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		for i := 0; i < len(es); i += 7 {
			es = append(es, es[i])
		}
	}
	h := graph.New(0)
	for v := range graph.NodeID(g.NumNodes()) {
		h.AddNode(g.NodeLabelName(v))
	}
	for _, e := range es {
		h.AddEdge(e.from, e.to, e.label)
	}
	return h
}

// TestBuildMatchesReference sweeps the three generators at a few sizes
// and seeds. Finalize must equal the append-and-sort reference on each
// graph's edges replayed in row order and replayed shuffled with
// repeats; InducedOf must equal its reference on DPar's fragments and on
// a shuffled node list with repeats, over the graph and over an OldView.
func TestBuildMatchesReference(t *testing.T) {
	graphs := map[string]func(size int, seed int64) *graph.Graph{
		"social":    func(n int, seed int64) *graph.Graph { return gen.Social(gen.DefaultSocial(n, seed)) },
		"knowledge": func(n int, seed int64) *graph.Graph { return gen.Knowledge(gen.DefaultKnowledge(n, seed)) },
		"smallworld": func(n int, seed int64) *graph.Graph {
			return gen.SmallWorld(gen.SmallWorldConfig{Nodes: n, Edges: 2 * n, Labels: 30, Seed: seed})
		},
	}
	for name, generate := range graphs {
		for _, size := range []int{50, 400, 1500} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%d/%d", name, size, seed), func(t *testing.T) {
					g := generate(size, seed)
					for _, shuffled := range []bool{false, true} {
						var a, b *graph.Graph
						if shuffled {
							a, b = replay(g, rand.New(rand.NewSource(seed))), replay(g, rand.New(rand.NewSource(seed)))
						} else {
							a, b = replay(g, nil), replay(g, nil)
						}
						a.Finalize()
						graph.ReferenceFinalize(b)
						if err := graph.SameBuild(a, b); err != nil {
							t.Fatalf("Finalize (shuffled %v): %v", shuffled, err)
						}
						if err := a.CheckIndex(); err != nil {
							t.Fatal(err)
						}
					}

					p, err := partition.DPar(g, partition.Config{Workers: 3, D: 2})
					if err != nil {
						t.Fatal(err)
					}
					r := rand.New(rand.NewSource(seed))
					lists := [][]graph.NodeID{nil}
					for _, f := range p.Fragments {
						lists = append(lists, f.Nodes)
					}
					some := make([]graph.NodeID, 0, g.NumNodes()/2)
					for _, v := range r.Perm(g.NumNodes())[:g.NumNodes()/3] {
						some = append(some, graph.NodeID(v))
					}
					lists = append(lists, append(some, some[:len(some)/4]...))

					vg := graph.NewVersioned(g.Clone())
					var batch []graph.Mutation
					for v := range graph.NodeID(g.NumNodes()) {
						if es := g.Out(v); len(es) > 0 && r.Intn(4) == 0 {
							batch = append(batch, graph.RemoveEdge(v, es[0].To, g.LabelName(es[0].Label)))
						}
						if r.Intn(8) == 0 {
							batch = append(batch, graph.AddEdge(v, graph.NodeID(r.Intn(g.NumNodes())), "added"))
						}
					}
					ov, err := vg.Apply(batch)
					if err != nil {
						t.Fatal(err)
					}
					for _, view := range []graph.View{g, vg.Graph(), ov} {
						for i, nodes := range lists {
							got, gotIDs := graph.InducedOf(view, nodes)
							want, wantIDs := graph.ReferenceInducedOf(view, nodes)
							if err := graph.SameBuild(got, want); err != nil {
								t.Fatalf("InducedOf of list %d over %T: %v", i, view, err)
							}
							if !slices.Equal(gotIDs, wantIDs) {
								t.Fatalf("InducedOf of list %d over %T: ids %v, want %v", i, view, gotIDs, wantIDs)
							}
							if err := got.CheckIndex(); err != nil {
								t.Fatal(err)
							}
						}
					}
				})
			}
		}
	}
}

// TestReadBinaryAllocsFlat: ReadBinary allocates per graph, not per node
// or edge: decoding the 6 000-person graph takes at most a few more
// allocations than the 1 000-person one: those of the edge list's and the
// node list's doublings.
func TestReadBinaryAllocsFlat(t *testing.T) {
	allocs := func(persons int) float64 {
		enc := encode(t, gen.Social(gen.DefaultSocial(persons, 1)))
		return testing.AllocsPerRun(3, func() {
			if _, err := graph.ReadBinary(bytes.NewReader(enc), math.MaxInt); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(6000)
	if large > small+8 {
		t.Errorf("ReadBinary: %v allocations at 1 000 persons, %v at 6 000: more than 8 apart", small, large)
	}
}
