package bench

import (
	"bufio"
	"bytes"
	"fmt"
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
		Threads:          2,
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
		var x string
		var work int64
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "x="); ok {
				x = v
			} else if v, ok := strings.CutPrefix(f, "total_work="); ok {
				fmt.Sscan(v, &work)
			}
		}
		want, ok := planned[x]
		if !ok {
			t.Fatalf("unexpected row %q", line)
		}
		if rows++; work*100 > want*105 {
			t.Errorf("exp 14 %s: total_work %d, more than 1.05 × %d", x, work, want)
		}
	}
	if rows != len(planned) {
		t.Fatalf("exp 14 printed %d rows, want %d:\n%s", rows, len(planned), buf.String())
	}
}
