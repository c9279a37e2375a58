// Command qgpmatch evaluates a quantified graph pattern against a graph.
//
// Usage:
//
//	qgpmatch -graph social.g -pattern q.qgp [-algo qmatch|qmatchn|enum]
//	qgpmatch -graph social.g -pattern q.qgp -workers 4 -threads 2 [-algo ...]
//
// With -workers > 1 the graph is partitioned with DPar and evaluated per
// fragment by the -algo engine (PQMatch, PQMatchn, PEnum); otherwise that
// engine runs sequentially. -stats prints work
// metrics alongside the matches. -planner chooses the matching order from
// collected graph statistics. -format selects the graph input format:
// auto (native text/binary, default), csv (edge list: from,to,label), or
// json (property-graph document). -rpq applies a quantified path
// constraint ("expr within N quant") to the matches as a post-filter.
// -profile prints the planner's explanation (matching order, per-step
// cardinality estimates) and the per-pattern stage profile (candidate
// sizes, order, timings) as one JSON document after the matches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/load"
	"repro/internal/match"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/rpq"
	"repro/internal/stats"
)

func main() {
	var (
		graphFile   = flag.String("graph", "", "graph file (required)")
		patternFile = flag.String("pattern", "", "pattern file in the QGP DSL (required)")
		algo        = flag.String("algo", "qmatch", "engine: qmatch, qmatchn, enum (with -workers: PQMatch, PQMatchn, PEnum)")
		workers     = flag.Int("workers", 1, "parallel workers (n > 1 partitions with DPar and evaluates per fragment)")
		threads     = flag.Int("threads", 2, "intra-fragment threads b (with -workers)")
		showStats   = flag.Bool("stats", false, "print work metrics")
		limit       = flag.Int("limit", 20, "print at most this many matches (0 = all)")
		format      = flag.String("format", "auto", "graph input format: auto, csv, json")
		planner     = flag.Bool("planner", false, "choose the matching order from graph statistics")
		constraint  = flag.String("rpq", "", "quantified path constraint post-filter, e.g. \"follow.follow within 2 >=5\"")
		profile     = flag.Bool("profile", false, "print the plan explanation and per-stage profile as JSON (sequential engines)")
	)
	flag.Parse()
	if *graphFile == "" || *patternFile == "" {
		flag.Usage()
		os.Exit(2)
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
		d := core.RequiredHops(q)
		part, err := partition.DPar(g, partition.Config{Workers: *workers, D: d})
		if err != nil {
			fatal(err)
		}
		res, err := parallel.Run(parallel.NewCluster(part), q, *algo, *threads)
		if err != nil {
			fatal(err)
		}
		matches, metrics = res.Matches, res.Metrics
		fmt.Printf("PQMatch n=%d b=%d d=%d algo=%s: sim_work=%d total_work=%d\n",
			*workers, *threads, d, *algo, res.SimWork, res.TotalWork)
	} else {
		prep, err := match.PrepareEngine(*algo, q)
		if err != nil {
			fatal(err)
		}
		var opts *match.Options
		if *planner {
			opts = &match.Options{OrderBy: plan.OrderFunc(g, stats.Collect(g))}
		}
		if *profile {
			if opts == nil {
				opts = &match.Options{}
			}
			opts.CollectProfile = true
		}
		res, err := prep.Run(g, opts)
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
			Plan    *plan.Explanation `json:"plan,omitempty"`
			Profile *match.Profile    `json:"profile"`
		}{Profile: prof}
		if ex, err := plan.Explain(g, stats.Collect(g), q); err == nil {
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
