package bench

import (
	"bufio"
	"bytes"
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
