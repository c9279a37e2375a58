package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles are the first, second and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) gives them (the exclusive method), which
// is what the driver accepts the benchmark's spread by.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// bounds reads each end-to-end metric's regression bound from the
// contract, wherever the command was started from.
func bounds() map[string]float64 {
	out := map[string]float64{}
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var doc struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if json.Unmarshal(b, &doc) == nil {
			for _, m := range doc.EndToEnd {
				out[m.Name] = m.Bound
			}
		}
		break
	}
	return out
}

// runSets runs one workload or all of them n times, every run in a
// process of its own (as the driver does, so peak memory and caches
// start fresh), and for n > 1 prints how well each metric repeats.
func runSets(out io.Writer, name string, seed, graphSeed int64, seconds, trace, clients, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	todo := workloads
	if name != "all" {
		w, ok := workloadByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", name, workloadNames())
			return 2
		}
		todo = []workload{w}
	}
	code := 0
	bound := bounds()
	for _, w := range todo {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-graph-seed", strconv.FormatInt(graphSeed, 10), "-seconds", strconv.Itoa(seconds),
				"-trace", strconv.Itoa(trace), "-clients", strconv.Itoa(clients))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the child to end
			if n == 1 {
				out.Write(stdout)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); err != nil || jerr != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d failed: run error %v, result error %v\n", w.name, seed+int64(i), err, jerr)
				code = 1
				continue
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
			if n > 1 {
				fmt.Fprintf(out, "# %s seed %d done\n", w.name, seed+int64(i))
			}
		}
		if n < 2 {
			continue
		}
		names := make([]string, 0, len(values))
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(out, "%-14s %-32s %12s %12s %12s %8s %6s  values\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
		for _, k := range names {
			if len(values[k]) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(values[k])
			b := "-"
			if v, ok := bound[k]; ok {
				b = strconv.FormatFloat(v, 'g', 3, 64)
			}
			fmt.Fprintf(out, "%-14s %-32s %12.6g %12.6g %12.6g %8.4f %6s  %.6g %s\n", w.name, k, q2, q1, q3, (q3-q1)/q2, b, values[k], units[k])
		}
	}
	return code
}
