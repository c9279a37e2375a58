package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestAllExperimentsDefined(t *testing.T) {
	exps := All()
	if len(exps) != 16 {
		t.Fatalf("experiments = %d, want 16 (12 figures + Exp-3 + 3 extension measurements)", len(exps))
	}
	for i, e := range exps {
		if e.ID != i+1 {
			t.Errorf("experiment %d has id %d", i, e.ID)
		}
		if e.Run == nil || e.Figure == "" || e.Title == "" {
			t.Errorf("experiment %d incomplete: %+v", e.ID, e)
		}
	}
	if _, ok := ByID(5); !ok {
		t.Error("ByID(5) not found")
	}
	if _, ok := ByID(99); ok {
		t.Error("ByID(99) found a ghost")
	}
}

// tiny is a scale small enough that every experiment finishes in well
// under a second, used to smoke-test the harness end to end.
func tiny() Scale {
	return Scale{
		SocialPersons:    300,
		KnowledgePersons: 400,
		SmallWorldNodes:  300,
		SmallWorldEdges:  600,
		Workers:          []int{1, 2},
		PatternsPerPoint: 1,
		Seed:             1,
	}
}

func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	sc := tiny()
	for _, e := range All() {
		var buf bytes.Buffer
		if err := e.Run(sc, &buf); err != nil {
			t.Fatalf("exp %d (%s): %v", e.ID, e.Figure, err)
		}
		lines := 0
		scanner := bufio.NewScanner(&buf)
		for scanner.Scan() {
			line := scanner.Text()
			if !strings.HasPrefix(line, "exp ") {
				t.Errorf("exp %d: malformed row %q", e.ID, line)
			}
			lines++
		}
		if e.ID != 13 && lines == 0 {
			t.Errorf("exp %d produced no rows", e.ID)
		}
	}
}

// rowFields splits a printed row into its key=value fields.
func rowFields(line string) map[string]string {
	out := map[string]string{}
	for _, f := range strings.Fields(line) {
		if k, v, ok := strings.Cut(f, "="); ok {
			out[k] = v
		}
	}
	return out
}

// TestExp14OrderWork pins the matching order's work on exp 14 at small
// scale, seed 1: each shape's total_work stays within 5% of what the
// statistics-driven planner the one order replaced read there (55 432,
// 80 675 and 193 465), so an order that searches more shows here.
func TestExp14OrderWork(t *testing.T) {
	var buf bytes.Buffer
	if err := exp14(Small(), &buf); err != nil {
		t.Fatal(err)
	}
	planned := map[string]int64{"(4,5)": 55_432, "(5,6)": 80_675, "(6,7)": 193_465}
	rows := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		f := rowFields(line)
		var work int64
		fmt.Sscan(f["total_work"], &work)
		want, ok := planned[f["x"]]
		if !ok {
			t.Fatalf("unexpected row %q", line)
		}
		if rows++; work*100 > want*105 {
			t.Errorf("exp 14 %s: total_work %d, more than 1.05 × %d", f["x"], work, want)
		}
	}
	if rows != len(planned) {
		t.Fatalf("exp 14 printed %d rows, want %d:\n%s", rows, len(planned), buf.String())
	}
}

// TestServedParallelWork pins §5 as the cluster serves it, on exps 2 and 3
// at small scale, seed 1, over n = 1, 2, 4, 8 and 16 workers. Every row
// keeps its series' recorded matches and does no more total_work than
// recorded, and within a series no n answers differently from n = 1 or
// does more total work: fragments split the search, they never widen it.
// Routing or shipping that loses answers, or a fragment run that prunes
// less than a whole-graph run, shows here.
func TestServedParallelWork(t *testing.T) {
	type want struct {
		work    int64
		matches string
	}
	recorded := map[string]want{
		"2 PQMatch":  {86_625, "368"},
		"2 PQMatchn": {86_998, "368"},
		"2 PEnum":    {45_817_784, "368"},
		"3 PQMatch":  {1_083, "11"},
		"3 PQMatchn": {1_378, "11"},
		"3 PEnum":    {1_504, "11"},
	}
	sc := Small()
	sc.Workers = []int{1, 2, 4, 8, 16}
	var buf bytes.Buffer
	for _, run := range []func(Scale, io.Writer) error{exp2, exp3} {
		if err := run(sc, &buf); err != nil {
			t.Fatal(err)
		}
	}
	first := map[string]want{} // per series, its n = 1 row
	rows := 0
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		f := rowFields(line)
		key := strings.Fields(line)[1] + " " + f["series"]
		w, ok := recorded[key]
		if !ok {
			t.Fatalf("unexpected row %q", line)
		}
		rows++
		var got want
		fmt.Sscan(f["total_work"], &got.work)
		got.matches = f["matches"]
		if got.matches != w.matches || got.work > w.work {
			t.Errorf("exp %s %s: matches %s, total_work %d; recorded %s matches, at most %d", key, f["x"], got.matches, got.work, w.matches, w.work)
		}
		if f["x"] == "n=1" {
			first[key] = got
		} else if one := first[key]; got.matches != one.matches || got.work > one.work {
			t.Errorf("exp %s %s: matches %s, total_work %d; at n=1 %s matches, total_work %d", key, f["x"], got.matches, got.work, one.matches, one.work)
		}
	}
	if rows != len(recorded)*len(sc.Workers) {
		t.Fatalf("exps 2 and 3 printed %d rows, want %d:\n%s", rows, len(recorded)*len(sc.Workers), buf.String())
	}
}
