package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the three command-line tools and drives them
// through the generate → mine-pattern → match → bench workflow.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end test skipped in -short mode")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"qgpgen", "qgpmatch", "qgpbench", "qgar"} {
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bins[name], args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	graphFile := filepath.Join(dir, "social.g")
	patternFile := filepath.Join(dir, "q.qgp")

	run("qgpgen", "-kind", "social", "-size", "400", "-seed", "1", "-out", graphFile)
	if fi, err := os.Stat(graphFile); err != nil || fi.Size() == 0 {
		t.Fatalf("qgpgen produced no graph: %v", err)
	}
	run("qgpgen", "-pattern", "-graph", graphFile,
		"-pnodes", "4", "-pedges", "4", "-ratio", "40", "-neg", "1", "-out", patternFile)
	pat, err := os.ReadFile(patternFile)
	if err != nil || !strings.HasPrefix(string(pat), "qgp\n") {
		t.Fatalf("qgpgen produced no pattern: %v\n%s", err, pat)
	}

	seq := run("qgpmatch", "-graph", graphFile, "-pattern", patternFile, "-stats")
	if !strings.Contains(seq, "matches in") || !strings.Contains(seq, "metrics:") {
		t.Fatalf("qgpmatch output unexpected:\n%s", seq)
	}
	// -algo reaches the parallel branch too: this is PEnum, same answers.
	par := run("qgpmatch", "-graph", graphFile, "-pattern", patternFile, "-workers", "2", "-algo", "enum")
	if !strings.Contains(par, "PQMatch n=2") || !strings.Contains(par, "algo=enum") {
		t.Fatalf("parallel qgpmatch output unexpected:\n%s", par)
	}
	// Sequential and parallel must report the same match count.
	seqCount := extractMatchCount(t, seq)
	parCount := extractMatchCount(t, par)
	if seqCount != parCount {
		t.Fatalf("sequential found %q matches, parallel %q", seqCount, parCount)
	}

	// QGAR mining and evaluation.
	mineOut := run("qgar", "-graph", graphFile, "-mine", "-minsupp", "2", "-minconf", "0.1", "-top", "3")
	if !strings.Contains(mineOut, "graph:") {
		t.Fatalf("qgar -mine output unexpected:\n%s", mineOut)
	}
	q1 := filepath.Join(dir, "q1.qgp")
	q2 := filepath.Join(dir, "q2.qgp")
	os.WriteFile(q1, []byte("qgp\nn xo person *\nn z person\nn p product\ne xo z follow >=50%\ne z p recom\n"), 0o644)
	os.WriteFile(q2, []byte("qgp\nn xo person *\nn p product\ne xo p buy\n"), 0o644)
	evalOut := run("qgar", "-graph", graphFile, "-antecedent", q1, "-consequent", q2, "-eta", "0.1")
	if !strings.Contains(evalOut, "support=") || !strings.Contains(evalOut, "confidence=") {
		t.Fatalf("qgar evaluation output unexpected:\n%s", evalOut)
	}

	list := run("qgpbench", "-list")
	if got := strings.Count(list, "exp "); got != 16 {
		t.Fatalf("qgpbench -list shows %d experiments, want 16:\n%s", got, list)
	}

	// Invalid usage exits non-zero.
	if err := exec.Command(bins["qgpbench"], "-exp", "99").Run(); err == nil {
		t.Fatal("qgpbench accepted an unknown experiment id")
	}
	if err := exec.Command(bins["qgpmatch"], "-graph", graphFile).Run(); err == nil {
		t.Fatal("qgpmatch accepted missing -pattern")
	}
	for _, branch := range [][]string{nil, {"-workers", "2"}} {
		args := append([]string{"-graph", graphFile, "-pattern", patternFile, "-algo", "bogus"}, branch...)
		if out, err := exec.Command(bins["qgpmatch"], args...).CombinedOutput(); err == nil || !strings.Contains(string(out), `unknown engine "bogus"`) {
			t.Fatalf("qgpmatch %v: err=%v\n%s", args, err, out)
		}
	}
}

func extractMatchCount(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "matches in") {
			return strings.Fields(line)[0]
		}
	}
	t.Fatalf("no match count in output:\n%s", out)
	return ""
}

// TestCLIFormatsAndPlanner drives qgpmatch through the interchange
// formats, the planner, and the path-constraint filter.
func TestCLIFormatsAndPlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "qgpmatch")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/qgpmatch").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	csvFile := filepath.Join(dir, "g.csv")
	csvData := "alice,bob,follow\nalice,carol,follow\nalice,dave,follow\nbob,carol,follow\n"
	if err := os.WriteFile(csvFile, []byte(csvData), 0o644); err != nil {
		t.Fatal(err)
	}
	jsonFile := filepath.Join(dir, "g.json")
	jsonData := `{"nodes":[{"id":"a","label":"node"},{"id":"b","label":"node"}],
	              "edges":[{"from":"a","to":"b","label":"follow"},{"from":"a","to":"a","label":"follow"}]}`
	if err := os.WriteFile(jsonFile, []byte(jsonData), 0o644); err != nil {
		t.Fatal(err)
	}
	patFile := filepath.Join(dir, "q.qgp")
	pat := "qgp\nn xo node *\nn z node\ne xo z follow >=2\n"
	if err := os.WriteFile(patFile, []byte(pat), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("qgpmatch %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// CSV: alice follows 3, bob follows 1 — only alice matches ≥2.
	out := run("-graph", csvFile, "-format", "csv", "-pattern", patFile, "-planner")
	if !strings.Contains(out, "1 matches") {
		t.Fatalf("csv run:\n%s", out)
	}
	// JSON: a has follow edges to b and itself = 2 distinct children,
	// but one is a self-loop; pattern needs 2 distinct non-xo children?
	// No — z just must be a different node than xo under isomorphism, so
	// the self-loop child (a itself) cannot serve; a has 1 usable child.
	out = run("-graph", jsonFile, "-format", "json", "-pattern", patFile)
	if !strings.Contains(out, "0 matches") {
		t.Fatalf("json run:\n%s", out)
	}
	// Path constraint filters everything at an impossible threshold.
	out = run("-graph", csvFile, "-format", "csv", "-pattern", patFile, "-rpq", "follow within 1 >=99")
	if !strings.Contains(out, "kept 0 of 1") {
		t.Fatalf("rpq run:\n%s", out)
	}
	// Bad format is a clean error.
	if out, err := exec.Command(bin, "-graph", csvFile, "-format", "yaml", "-pattern", patFile).CombinedOutput(); err == nil {
		t.Fatalf("yaml format accepted:\n%s", out)
	}
}
