// Benchmarks reproducing the paper's evaluation: one testing.B target per
// table/figure (BenchmarkExp1..BenchmarkExp13, see DESIGN.md §4 for the
// figure mapping), plus micro-benchmarks of the core operations. The
// experiment benchmarks run the bench-package experiments at reduced
// scale; cmd/qgpbench runs them at full scale and prints the series.
package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/partition"
	"repro/internal/server"
)

func runExperiment(b *testing.B, id int) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("no experiment %d", id)
	}
	sc := bench.Small()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(sc, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp1ResponseTime — Figure 8(a).
func BenchmarkExp1ResponseTime(b *testing.B) { runExperiment(b, 1) }

// BenchmarkExp2VaryNSocial — Figure 8(b).
func BenchmarkExp2VaryNSocial(b *testing.B) { runExperiment(b, 2) }

// BenchmarkExp3VaryNKnowledge — Figure 8(c).
func BenchmarkExp3VaryNKnowledge(b *testing.B) { runExperiment(b, 3) }

// BenchmarkExp4DParSocial — Figure 8(d).
func BenchmarkExp4DParSocial(b *testing.B) { runExperiment(b, 4) }

// BenchmarkExp5DParKnowledge — Figure 8(e).
func BenchmarkExp5DParKnowledge(b *testing.B) { runExperiment(b, 5) }

// BenchmarkExp6VaryQSocial — Figure 8(f).
func BenchmarkExp6VaryQSocial(b *testing.B) { runExperiment(b, 6) }

// BenchmarkExp7VaryQKnowledge — Figure 8(g).
func BenchmarkExp7VaryQKnowledge(b *testing.B) { runExperiment(b, 7) }

// BenchmarkExp8VaryNegSocial — Figure 8(h).
func BenchmarkExp8VaryNegSocial(b *testing.B) { runExperiment(b, 8) }

// BenchmarkExp9VaryNegKnowledge — Figure 8(i).
func BenchmarkExp9VaryNegKnowledge(b *testing.B) { runExperiment(b, 9) }

// BenchmarkExp10VaryPSocial — Figure 8(j).
func BenchmarkExp10VaryPSocial(b *testing.B) { runExperiment(b, 10) }

// BenchmarkExp11VaryPKnowledge — Figure 8(k).
func BenchmarkExp11VaryPKnowledge(b *testing.B) { runExperiment(b, 11) }

// BenchmarkExp12VaryG — Figure 8(l).
func BenchmarkExp12VaryG(b *testing.B) { runExperiment(b, 12) }

// BenchmarkExp13QGAR — Exp-3.
func BenchmarkExp13QGAR(b *testing.B) { runExperiment(b, 13) }

// --- Micro-benchmarks ----------------------------------------------------

func socialFixture(b *testing.B, persons int) (*graph.Graph, *core.Pattern) {
	b.Helper()
	g := gen.Social(gen.DefaultSocial(persons, 1))
	q := gen.Pattern(g, gen.PatternConfig{Nodes: 5, Edges: 7, RatioBP: 3000, NegEdges: 1, Seed: 1})
	return g, q
}

func BenchmarkQMatchSocial(b *testing.B) {
	g, q := socialFixture(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.QMatch(g, q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQMatchMix runs QMatch on each pattern of the benchmark's mix
// (fixture.Mix, one per quantifier family) over the benchmark's social
// graph size, so the engine hot path is measurable from the root module.
// allocs/op is reported because it still scales with the number of focus
// candidates (matchFocus builds a map of witness sets per candidate).
func BenchmarkQMatchMix(b *testing.B) {
	g := gen.Social(gen.DefaultSocial(6000, 1))
	for _, m := range fixture.Mix {
		q, err := core.Parse(m.DSL)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := match.QMatch(g, q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireAnswer encodes and decodes one match Response carrying
// 3 000 ascending ids out of 6 000 — what one answer costs on each of the
// two hops it crosses (worker → coordinator, front end → client).
// BenchmarkMergeRuns in internal/cluster is the coordinator's step between
// them. It fails itself if the answer's bytes differ from the wire golden
// internal/server recorded at 6ecd0ac: a faster codec must write the same
// line.
func BenchmarkWireAnswer(b *testing.B) {
	resp := server.Response{ID: 1, OK: true, Total: 3000, ElapsedMS: 1.25, Matches: make(server.IDList, 3000)}
	for i := range resp.Matches {
		resp.Matches[i] = int64(2 * i)
	}
	if line, err := json.Marshal(&resp); err != nil || string(line) != wireGolden(b, "answer3000") {
		b.Fatalf("the 3000-id answer encodes as %.80s… (%v), not as the golden", line, err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		line, err := json.Marshal(&resp)
		if err != nil {
			b.Fatal(err)
		}
		var back server.Response
		if err := json.Unmarshal(line, &back); err != nil {
			b.Fatal(err)
		}
		if len(back.Matches) != len(resp.Matches) {
			b.Fatalf("decoded %d ids of %d", len(back.Matches), len(resp.Matches))
		}
	}
}

// wireGolden returns one case of internal/server's wire golden: the bytes
// json.Marshal wrote for it at 6ecd0ac.
func wireGolden(b *testing.B, name string) string {
	data, err := os.ReadFile("internal/server/testdata/wire-6ecd0ac.golden")
	if err != nil {
		b.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if n, enc, ok := strings.Cut(line, "\t"); ok && n == name {
			return enc
		}
	}
	b.Fatalf("no case %q in the wire golden", name)
	return ""
}

// BenchmarkWireUpdate encodes and decodes both hops of the benchmark-shaped
// batch (4 follow edges in, 4 out, on social persons=4000, 8 standing
// watches). worker is what one fragment copy is sent and answers: the
// update request — the packed batch alone — and the fragment's reply,
// which names only the watches whose answers changed there (2 of the 8).
// client is the client's request and the front end's reply,
// one delta per watch. A batch crosses the worker hop once per fragment
// copy it concerns and the client hop once.
func BenchmarkWireUpdate(b *testing.B) {
	var batch server.Batch
	for i := int64(0); i < 8; i++ {
		op := "addEdge"
		if i >= 4 {
			op = "removeEdge"
		}
		batch = append(batch, server.UpdateSpec{Op: op, From: 97 + 431*i, To: 3911 - 389*i, Label: "follow"})
	}
	worker := server.Response{ID: 7, OK: true, Nodes: 4147, Edges: 78011}
	client := server.Response{ID: 7, OK: true, Nodes: 4147, Edges: 78011, Session: "writer"}
	for i := 0; i < 8; i++ {
		d := server.WatchDelta{Watch: fmt.Sprintf("w%d", i), Affected: 6}
		if i%4 == 0 {
			d.Added = server.IDList{1207}
			d.Removed = server.IDList{2210, 2987}
			worker.Deltas = append(worker.Deltas, d)
		}
		client.Deltas = append(client.Deltas, d)
	}
	b.Run("worker", func(b *testing.B) {
		wireRoundTrip(b, &server.Request{ID: 7, Cmd: "update", Updates: batch}, &worker)
	})
	b.Run("client", func(b *testing.B) {
		wireRoundTrip(b, &server.Request{ID: 7, Cmd: "update", Updates: batch}, &client)
	})
}

// wireRoundTrip encodes and decodes req and resp once per iteration and
// reports their sizes.
func wireRoundTrip(b *testing.B, req *server.Request, resp *server.Response) {
	b.ReportAllocs()
	var line, reply []byte
	for i := 0; i < b.N; i++ {
		var err error
		if line, err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
		var gotReq server.Request
		if err := json.Unmarshal(line, &gotReq); err != nil {
			b.Fatal(err)
		}
		if reply, err = json.Marshal(resp); err != nil {
			b.Fatal(err)
		}
		var gotResp server.Response
		if err := json.Unmarshal(reply, &gotResp); err != nil {
			b.Fatal(err)
		}
		if len(gotReq.Updates) != len(req.Updates) || len(gotResp.Deltas) != len(resp.Deltas) {
			b.Fatalf("decoded %d ops of %d, %d deltas of %d", len(gotReq.Updates), len(req.Updates), len(gotResp.Deltas), len(resp.Deltas))
		}
	}
	b.ReportMetric(float64(len(line)), "req-bytes")
	b.ReportMetric(float64(len(reply)), "resp-bytes")
}

func BenchmarkQMatchNSocial(b *testing.B) {
	g, q := socialFixture(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.QMatchN(g, q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumSocial(b *testing.B) {
	g, q := socialFixture(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.Enum(g, q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDParSocial(b *testing.B) {
	g := gen.Social(gen.DefaultSocial(2000, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.DPar(g, partition.Config{Workers: 4, D: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSocialPQMatch(b *testing.B) {
	g, q := socialFixture(b, 2000)
	// The fragmentation preserves the radius the pattern needs, as
	// qgpmatch -workers does.
	ts := cluster.InProcessN(4, server.Config{})
	c, err := cluster.New(g, ts, cluster.Config{D: core.RequiredHops(q)})
	if err != nil {
		cluster.CloseAll(ts)
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Match(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphGeneration(b *testing.B) {
	for _, kind := range []string{"social", "knowledge", "smallworld"} {
		b.Run(kind, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				switch kind {
				case "social":
					gen.Social(gen.DefaultSocial(2000, int64(i)))
				case "knowledge":
					gen.Knowledge(gen.DefaultKnowledge(2000, int64(i)))
				default:
					gen.SmallWorld(gen.SmallWorldConfig{Nodes: 2000, Edges: 4000, Seed: int64(i)})
				}
			}
		})
	}
}

func BenchmarkSimulationFilter(b *testing.B) {
	g, q := socialFixture(b, 2000)
	pi, _ := q.Pi()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// QMatch compiles (and simulates) per call; this isolates that cost.
		if _, err := match.QMatch(g, pi, &match.Options{FocusRestrict: []graph.NodeID{0}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPatternGeneration(b *testing.B) {
	g := gen.Social(gen.DefaultSocial(2000, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Pattern(g, gen.PatternConfig{
			Nodes: 5, Edges: 7, RatioBP: 3000, NegEdges: 1, Seed: int64(i),
		})
	}
}

func Example_quantifierDSL() {
	p, _ := core.Parse(`
qgp
n xo person *
n z person
e xo z follow >=80%
`)
	fmt.Print(p)
	// Output:
	// qgp
	// n xo person *
	// n z person
	// e xo z follow >=80%
}

// BenchmarkExp14MatchingOrder — extension measurement Ext-1.
func BenchmarkExp14MatchingOrder(b *testing.B) { runExperiment(b, 14) }

// BenchmarkExp15DynamicMaintenance — extension ablation Ext-2.
func BenchmarkExp15DynamicMaintenance(b *testing.B) { runExperiment(b, 15) }
