// Command benchmark is the repository's one benchmark: four named
// workloads over the QGP engines and the cluster service, every answer
// checked against a single-process oracle, end-to-end metrics from a
// run with tracing off and per-layer metrics from a separate traced run.
// BENCHMARK.json at the repository root is its contract; README.md in
// this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable detail: errors, sample counts, extras
}

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	seed    int64 // request streams
	graph   int64 // dataset
	window  time.Duration
	warmup  time.Duration
	persons int    // graph size; the smoke test shrinks it
	conns   int    // client connections in the untraced run
	setups  int    // least number of times set-up is run; the median is reported
	tmp     string // parent of the journal directories
	oracle  oracleFunc
	spans   string // file the traced run writes its spans to; "" keeps them in memory only
}

func defaultConfig(w workload, seed int64, window time.Duration) runConfig {
	cfg := runConfig{w: w, seed: seed, graph: graphSeed, window: window, warmup: min(window/5, 2*time.Second), persons: w.persons, conns: w.clients, setups: 3, tmp: ".bench_build/tmp"}
	cfg.oracle = qmatchOracle
	if w.kind == kindSingle {
		cfg.oracle = enumOracle
	}
	return cfg
}

// sampleEvery is the share of measured-window answers kept for the
// oracle; every warm-up answer is kept.
const sampleEvery = 8

// setUp generates the inputs and builds the rig (nil on match-single),
// timed as the user-visible start-up cost: graph generation, load, DPar,
// fragment shipping, replica placement and watch registration.
func setUp(cfg runConfig, conns int, rec *recorder, speed *speedometer) (*inputs, *rig, time.Duration, error) {
	t0 := time.Now()
	in, err := genInputs(cfg.persons, cfg.graph, cfg.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	var r *rig
	if cfg.w.kind != kindSingle || rec != nil {
		if r, err = newRig(in, cfg.w, conns, cfg.tmp, rec); err != nil {
			return nil, nil, 0, err
		}
		r.speed = speed
	}
	return in, r, time.Since(t0), nil
}

// finish turns the measured phases into the contract's counts: every op
// sent in warm-up and window, with errors and wrong answers as failures.
func finish(cfg runConfig, in *inputs, r *rig, res *result, phases ...*phase) error {
	all := &phase{}
	for _, p := range phases {
		all.merge(p)
	}
	var final uint64
	var folded []map[int64]bool
	if r != nil {
		final, folded = r.sent.Load(), r.answers
	}
	wrong, notes, err := verify(in, cfg.oracle, final, all.samples, folded)
	if err != nil {
		return err
	}
	res.Attempted = all.attempted
	res.Failed = all.failed + wrong
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.notes = append(res.notes, fmt.Sprintf("checked %d sampled answers and %d watches against the oracle after %d batches", len(all.samples), len(folded), final))
	res.notes = append(res.notes, all.errs...)
	res.notes = append(res.notes, notes...)
	return nil
}

// runUntraced measures the end-to-end metrics with no tracing wrapper
// installed anywhere. The three timings are reported at the reference
// box's quiet speed (calib.go); the report prints the raw values too.
func runUntraced(cfg runConfig) (*result, error) {
	speed := startSpeedometer()
	defer speed.stop()
	var in *inputs
	var r *rig
	var setups []time.Duration
	// Set-up runs at least cfg.setups times and for at least two seconds
	// in all, so that a set-up of a fraction of a second (match-single) is
	// a median of many and not of one cold and two warm runs.
	t0 := time.Now()
	for spent := time.Duration(0); len(setups) < cfg.setups || (cfg.setups > 1 && spent < 2*time.Second); {
		if r != nil {
			r.close()
		}
		var d time.Duration
		var err error
		if in, r, d, err = setUp(cfg, cfg.conns, nil, speed); err != nil {
			return nil, err
		}
		setups = append(setups, d)
		spent += d
	}
	if r != nil {
		defer r.close()
	}
	t1 := time.Now()
	warm, warmW := drive(cfg.w, in, r, time.Now().Add(cfg.warmup), cfg.conns, 1, nil)
	t2 := time.Now()
	meas, measW := drive(cfg.w, in, r, t2.Add(cfg.window), cfg.conns, sampleEvery, nil)
	t3 := time.Now()

	refSetup, nSetup := speed.during(t0, t1)
	refWindow, nWindow := speed.during(t2, t3)
	xs, xw := slowdown(refSetup), slowdown(refWindow)
	res := &result{Metrics: map[string]metric{
		"setup_s":          {median(setups) / xs, "s"},
		"ops_per_s_at_ref": {meas.opsPerSec(cfg.window) * xw, "1/s"},
		"op_ms_at_ref":     {meas.opLatency() * 1e3 / xw, "ms"},
		"peak_rss_mb":      {peakRSSMiB(), "MiB"},
	}}
	res.notes = append(res.notes, fmt.Sprintf("as measured: setup %.4f s (median of %d), %.2f ops/s, op %.4f ms; reference traversal %.4f ms in set-up (%d samples, %.3fx the reference speed's %.2f ms), %.4f ms in the window (%d samples, %.3fx)",
		median(setups), len(setups), meas.opsPerSec(cfg.window), meas.opLatency()*1e3,
		refSetup.Seconds()*1e3, nSetup, xs, refNominal.Seconds()*1e3, refWindow.Seconds()*1e3, nWindow, xw))
	res.notes = append(res.notes, fmt.Sprintf("%d ops in %d rounds measured: p50 %.3f ms, p99 %.3f ms; generator lateness p99 %.3f ms",
		len(meas.lat), len(meas.rounds), median(meas.lat)*1e3, quantile(meas.lat, 0.99)*1e3, quantile(meas.late, 0.99)*1e3))
	if measW != nil {
		res.notes = append(res.notes, fmt.Sprintf("open-loop writer at %d per reference second: %d batches, p50 %.3f ms, p99 %.3f ms from due time, late p99 %.3f ms",
			openLoopRate, len(measW.lat), median(measW.lat)*1e3, quantile(measW.lat, 0.99)*1e3, quantile(measW.late, 0.99)*1e3))
	}
	if err := finish(cfg, in, r, res, warm, warmW, meas, measW); err != nil {
		return nil, err
	}
	return res, nil
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built from a git checkout)"
}

// printEnv is the environment block every report starts with.
func printEnv(out io.Writer, cfg runConfig, traced bool) {
	conns := cfg.conns
	if traced {
		conns = tracedConns(cfg.w)
	}
	fmt.Fprintf(out, "# cores=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Fprintf(out, "# workload=%s seed=%d graph-seed=%d persons=%d watches=%d window=%s warmup=%s clients=%d traced=%v\n",
		cfg.w.name, cfg.seed, cfg.graph, cfg.persons, cfg.w.watches, cfg.window, cfg.warmup, conns, traced)
	if cfg.w.kind != kindSingle || traced {
		fmt.Fprintf(out, "# cluster: workers=%d replicas=%d d=%d journal=on fsync=off compact=16MiB transport=in-process front=tcp-loopback\n",
			clusterWorkers, clusterReplicas, clusterD)
	}
}

func printResult(out io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(out, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "%-36s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, n := range res.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
}

func realMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 42, "seed of the request streams: the batch schedule and where in the mix each client starts")
	gseed := fs.Int64("graph-seed", graphSeed, "seed of the generated dataset; pinned, change it to check a claim on a second graph")
	seconds := fs.Int("seconds", 18, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON")
	clients := fs.Int("clients", 0, "client goroutines (0: the workload's own count, capped at the CPU count)")
	repeat := fs.Int("repeat", 0, "run N sets in child processes, seeds seed..seed+N-1, and print each end-to-end metric's quartiles and spread next to its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1, -trace 0 or 1, -repeat not negative")
		return 2
	}
	if *name == "all" || *repeat > 0 {
		return runSets(out, *name, *seed, *gseed, *seconds, *trace, *clients, max(*repeat, 1))
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	cfg := defaultConfig(w, *seed, time.Duration(*seconds)*time.Second)
	cfg.spans, cfg.graph = *spans, *gseed
	// Load generators must not outnumber the CPUs, or the benchmark
	// measures its own scheduling.
	switch {
	case *clients > runtime.NumCPU():
		fmt.Fprintf(os.Stderr, "benchmark: %d client goroutines asked for on %d CPUs\n", *clients, runtime.NumCPU())
		return 2
	case *clients > 0:
		cfg.conns = *clients
	case cfg.conns > runtime.GOMAXPROCS(0):
		cfg.conns = runtime.GOMAXPROCS(0)
	}
	if w.kind == kindMixed {
		cfg.conns = 2 // always one writer and one reader
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printEnv(out, cfg, *trace == 1)
	run := runUntraced
	if *trace == 1 {
		run = runTraced
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(out, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func main() {
	// One P unless the environment says otherwise. On the reference box
	// (2 vCPUs of a shared VM) the second CPU comes and goes by the
	// minute: with two Ps the cluster workloads read 30-50% apart from one
	// quarter hour to the next, with one P about a tenth. Set
	// GOMAXPROCS to measure parallel fan-out on a quiet machine; the
	// report's first line records the value used.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	os.Exit(realMain(os.Args[1:], os.Stdout))
}
