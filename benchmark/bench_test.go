package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// contract is the part of BENCHMARK.json the benchmark's output must match.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smokeConfig is a run small enough for go test: a 300-person graph and
// a 300 ms window.
func smokeConfig(t *testing.T, w workload) runConfig {
	cfg := defaultConfig(w, 42, 300*time.Millisecond)
	cfg.persons, cfg.setups, cfg.tmp = 300, 1, t.TempDir()
	return cfg
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkMetrics asserts the run emitted exactly the declared metrics,
// once each (a map cannot hold two), finite and with the declared unit.
func checkMetrics(t *testing.T, res *result, want []declared) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d notes=%q", res.Correct, res.Attempted, res.Failed, res.notes)
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s not emitted", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: value %v is not finite", d.Name, m.Value)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
	}
	if len(res.Metrics) != len(want) {
		for name := range res.Metrics {
			found := false
			for _, d := range want {
				found = found || d.Name == name
			}
			if !found {
				t.Errorf("undeclared metric %s emitted", name)
			}
		}
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	c := readContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is outside [A-Za-z0-9_.-]", w.Name)
		}
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(smokeConfig(t, w))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, c.EndToEnd)
			for _, d := range c.EndToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
			cfg := smokeConfig(t, w)
			cfg.spans = cfg.tmp + "/spans.json"
			if res, err = runTraced(cfg); err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, c.PerLayer)
			if v := res.Metrics["tenant.throttled_ratio"].Value; v != 0 {
				t.Errorf("tenant.throttled_ratio = %v with unlimited tenants", v)
			}
			b, err := os.ReadFile(cfg.spans)
			var spans []span
			if err != nil || json.Unmarshal(b, &spans) != nil || len(spans) == 0 {
				t.Errorf("span file: %v, %d spans", err, len(spans))
			}
		})
	}
}

// A wrong answer must fail the run: an oracle that disagrees on one id
// stands in for a program that returned one.
func TestWrongAnswerFailsRun(t *testing.T) {
	for _, name := range []string{"match-cluster", "update-watch"} {
		w, _ := workloadByName(name)
		cfg := smokeConfig(t, w)
		cfg.oracle = func(g *graph.Graph, q *core.Pattern) ([]int64, error) {
			ids, err := qmatchOracle(g, q)
			if len(ids) > 0 {
				ids = ids[:len(ids)-1]
			}
			return ids, err
		}
		res, err := runUntraced(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted oracle comparison passed: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

// The command itself must exit non-zero without the product sources'
// answers agreeing; exit codes are realMain's return value.
func TestBadArgumentsExitNonZero(t *testing.T) {
	if code := realMain([]string{"-workload", "no-such"}, os.Stdout); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if code := realMain([]string{"-workload", "match-single", "-clients", "100000"}, os.Stdout); code == 0 {
		t.Error("more clients than CPUs exited 0")
	}
}

// The pinned mix must keep covering selective and unselective patterns
// at the real graph size, on the development seed and on another.
func TestMixSpansSelectivity(t *testing.T) {
	for _, seed := range []int64{graphSeed, 7} {
		in, err := genInputs(6000, seed, 42)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := 1.0, 0.0
		for i, q := range in.mix {
			ids, err := qmatchOracle(in.g, q)
			if err != nil {
				t.Fatal(err)
			}
			share := float64(len(ids)) / float64(in.persons)
			t.Logf("seed %d %s: %d answers (%.1f%% of persons)", seed, mixDSL[i].name, len(ids), 100*share)
			lo, hi = math.Min(lo, share), math.Max(hi, share)
		}
		if lo >= 0.05 || hi <= 0.80 {
			t.Errorf("seed %d: answer shares span %.3f..%.3f, want below 0.05 to above 0.80", seed, lo, hi)
		}
	}
}

func TestBatchScheduleIsAFunctionOfSeedAndIndex(t *testing.T) {
	a, _ := genInputs(300, graphSeed, 7)
	b, _ := genInputs(300, graphSeed, 7)
	c, _ := genInputs(300, graphSeed, 8)
	differs := false
	for i := 0; i < 40; i++ {
		if !reflect.DeepEqual(a.batchFor(i), b.batchFor(i)) {
			t.Fatalf("batch %d differs between two generations of seed 7", i)
		}
		differs = differs || !reflect.DeepEqual(a.batchFor(i), c.batchFor(i))
	}
	if !differs {
		t.Error("seeds 7 and 8 give the same schedule")
	}
}

// quartiles must agree with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 10, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestUnionMergesOverlaps(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	calls := []call{{start: at(0), end: at(10)}, {start: at(5), end: at(12)}, {start: at(20), end: at(25)}}
	if got := union(calls, func(*call) bool { return true }); got != 17*time.Millisecond {
		t.Errorf("union = %v, want 17ms", got)
	}
	if got := union(nil, func(*call) bool { return true }); got != 0 {
		t.Errorf("union of nothing = %v", got)
	}
}

// The reported latency is the median over complete rounds of a round's
// mean, and the plain mean when the window held no complete round.
func TestOpLatencyIsMedianOfRoundMeans(t *testing.T) {
	ms := func(vs ...int) (ds []time.Duration) {
		for _, v := range vs {
			ds = append(ds, time.Duration(v)*time.Millisecond)
		}
		return ds
	}
	p := &phase{lat: ms(1, 3, 10, 30, 2, 4, 99)} // rounds of 2: means 2, 20, 3; 99 is left over
	p.closeRounds(2)
	if got := p.opLatency(); got != 0.003 {
		t.Errorf("opLatency = %v s, want 0.003", got)
	}
	short := &phase{lat: ms(1, 3)}
	short.closeRounds(7)
	if got := short.opLatency(); got != 0.002 {
		t.Errorf("opLatency without a complete round = %v s, want the mean 0.002", got)
	}
}

// The speedometer always has a sample, counts those inside an interval,
// and falls back on all of them for an interval that holds none.
func TestSpeedometerSamples(t *testing.T) {
	t0 := time.Now()
	s := startSpeedometer()
	time.Sleep(4 * refEvery)
	s.stop()
	d, n := s.during(t0, time.Now())
	if n < 2 || d <= 0 {
		t.Errorf("%d samples, median %v in four periods", n, d)
	}
	if d2, n2 := s.during(t0.Add(-time.Hour), t0.Add(-time.Minute)); n2 != n || d2 != d {
		t.Errorf("empty interval gave %d samples, median %v; want all %d, %v", n2, d2, n, d)
	}
	if x := slowdown(2 * refNominal); x != 2 {
		t.Errorf("slowdown(2*refNominal) = %v", x)
	}
}
