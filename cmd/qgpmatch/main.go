// Command qgpmatch evaluates a quantified graph pattern against a graph.
//
// Usage:
//
//	qgpmatch -graph social.g -pattern q.qgp [-algo qmatch|qmatchn|enum]
//	qgpmatch -graph social.g -pattern q.qgp -workers 4 [-algo ...]
//
// With -workers > 1 the graph is served by an in-process cluster, the one
// qgpcluster runs: a coordinator fragments it with DPar across that many
// workers, each evaluates its fragment with the -algo engine (PQMatch,
// PQMatchn, PEnum), and the coordinator merges their answers; otherwise
// that engine runs sequentially. -stats prints work
// metrics alongside the matches. -format selects the graph input format:
// auto (native text/binary, default), csv (edge list: from,to,label), or
// json (property-graph document). -rpq applies a quantified path
// constraint ("expr within N quant") to the matches as a post-filter.
// -profile prints the explanation (each positive pattern's matching order,
// ranked by label-class sizes) and the per-pattern stage profile
// (candidate sizes, order, timings) as one JSON document after the
// matches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/match"
	"repro/internal/rpq"
	"repro/internal/server"
)

func main() {
	var (
		graphFile   = flag.String("graph", "", "graph file (required)")
		patternFile = flag.String("pattern", "", "pattern file in the QGP DSL (required)")
		algo        = flag.String("algo", "qmatch", "engine: qmatch, qmatchn, enum (with -workers: PQMatch, PQMatchn, PEnum)")
		workers     = flag.Int("workers", 1, "parallel workers (n > 1 partitions with DPar and evaluates per fragment)")
		showStats   = flag.Bool("stats", false, "print work metrics")
		limit       = flag.Int("limit", 20, "print at most this many matches (0 = all)")
		format      = flag.String("format", "auto", "graph input format: auto, csv, json")
		constraint  = flag.String("rpq", "", "quantified path constraint post-filter, e.g. \"follow.follow within 2 >=5\"")
		profile     = flag.Bool("profile", false, "print the plan explanation and per-stage profile as JSON (sequential engines)")
	)
	flag.Parse()
	if *graphFile == "" || *patternFile == "" {
		flag.Usage()
		os.Exit(2)
	}

	engine, err := match.ParseEngine(*algo)
	if err != nil {
		fatal(err)
	}
	g := readGraph(*graphFile, *format)
	q := readPattern(*patternFile)
	fmt.Printf("graph: %s\npattern:\n%s", g.ComputeStats(), q)

	start := time.Now()
	var matches []graph.NodeID
	var metrics match.Metrics
	var prof *match.Profile

	if *workers > 1 {
		if *profile {
			fatal(fmt.Errorf("-profile applies to the sequential engines; drop -workers"))
		}
		// Unbudgeted, like the sequential engines.
		ts := cluster.InProcessN(*workers, server.Config{DefaultBudget: -1})
		c, err := cluster.New(g.Clone(), ts, cluster.Config{D: max(core.RequiredHops(q), 1)})
		if err != nil {
			cluster.CloseAll(ts)
			fatal(err)
		}
		res, err := c.MatchWith(q, &cluster.MatchOptions{Engine: *algo})
		c.Close()
		if err != nil {
			fatal(err)
		}
		matches, metrics = res.Matches, res.Metrics
		total, slowest := res.Work()
		fmt.Printf("PQMatch n=%d d=%d algo=%s: sim_work=%d total_work=%d\n",
			*workers, c.D(), *algo, slowest, total)
	} else {
		prep, err := match.Prepare(q)
		if err != nil {
			fatal(err)
		}
		res, err := prep.Bind(g).Run(engine, &match.Options{CollectProfile: *profile})
		if err != nil {
			fatal(err)
		}
		matches, metrics, prof = res.Matches, res.Metrics, res.Profile
	}
	if *constraint != "" {
		c, err := rpq.ParseConstraint(*constraint)
		if err != nil {
			fatal(err)
		}
		before := len(matches)
		matches = rpq.Filter(g, matches, c)
		fmt.Printf("path constraint %q kept %d of %d matches\n", *constraint, len(matches), before)
	}
	elapsed := time.Since(start)

	fmt.Printf("%d matches in %v\n", len(matches), elapsed.Round(time.Microsecond))
	shown := matches
	if *limit > 0 && len(shown) > *limit {
		shown = shown[:*limit]
	}
	for _, v := range shown {
		fmt.Printf("  node %d (%s)\n", v, g.NodeLabelName(v))
	}
	if len(shown) < len(matches) {
		fmt.Printf("  ... %d more\n", len(matches)-len(shown))
	}
	if *showStats {
		fmt.Printf("metrics: focus_candidates=%d verifications=%d extensions=%d early_accepts=%d inc_runs=%d\n",
			metrics.FocusCandidates, metrics.Verifications, metrics.Extensions,
			metrics.EarlyAccepts, metrics.IncRuns)
	}
	if *profile && prof != nil {
		doc := struct {
			Plan    *match.Explanation `json:"plan,omitempty"`
			Profile *match.Profile     `json:"profile"`
		}{Profile: prof}
		if ex, err := match.Explain(g, q); err == nil {
			doc.Plan = ex
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("profile:\n%s\n", b)
	}
}

func readGraph(path, format string) *graph.Graph {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	var g *graph.Graph
	switch format {
	case "auto":
		g, err = graph.ReadAuto(f)
	case "csv":
		var res *load.Result
		res, err = load.CSV(f, load.CSVOptions{LabelCol: 2})
		if res != nil {
			g = res.Graph
		}
	case "json":
		var res *load.Result
		res, err = load.JSON(f)
		if res != nil {
			g = res.Graph
		}
	default:
		err = fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		fatal(err)
	}
	return g
}

func readPattern(path string) *core.Pattern {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	q, err := core.Parse(string(data))
	if err != nil {
		fatal(err)
	}
	return q
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "qgpmatch: %v\n", err)
	os.Exit(1)
}
