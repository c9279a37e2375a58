package repro

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// freePort reserves a loopback port and releases it for the child
// process to bind. The tiny reuse race is acceptable in a test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestClusterDebugEndpointE2E boots the real qgpcluster binary with the
// debug listener and verifies the whole observability surface: /healthz
// and /metrics answer over HTTP with a non-empty registry carrying the
// update fan-out counters and per-worker latency histograms, the
// metrics wire command reports the same numbers, and the pprof index
// serves.
func TestClusterDebugEndpointE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("binary end-to-end test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "qgpcluster")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/qgpcluster").CombinedOutput(); err != nil {
		t.Fatalf("build qgpcluster: %v\n%s", err, out)
	}

	addr, debugAddr := freePort(t), freePort(t)
	cmd := exec.Command(bin, "-addr", addr, "-spawn", "2", "-debug-addr", debugAddr, "-trace")
	var logBuf strings.Builder
	cmd.Stdout, cmd.Stderr = &logBuf, &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + debugAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// Wait for the debug listener to come up.
	up := false
	for i := 0; i < 100 && !up; i++ {
		resp, err := http.Get("http://" + debugAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			up = resp.StatusCode == http.StatusOK
		}
		if !up {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !up {
		t.Fatalf("debug endpoint never became healthy; process log:\n%s", logBuf.String())
	}

	// /metrics is non-empty before any request (startup gauges).
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var boot obs.Snapshot
	if err := json.Unmarshal(body, &boot); err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	if boot.Gauges["cluster.config.workers"] != 2 {
		t.Fatalf("startup gauge cluster.config.workers = %d, want 2\n%s", boot.Gauges["cluster.config.workers"], body)
	}

	// Drive a session over the wire protocol so the fan-out instruments
	// record traffic.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Gen("social", 500, 7); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if _, _, err := c.Update(server.UpdateSpec{Op: "addEdge", From: 0, To: 1, Label: "follow"}); err != nil {
		t.Fatalf("update: %v", err)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	if snap.Counters["cluster.update.count"] != 1 {
		t.Errorf("cluster.update.count over HTTP = %d, want 1", snap.Counters["cluster.update.count"])
	}
	perWorker := 0
	for i := 0; i < 2; i++ {
		perWorker += int(snap.Histograms[fmt.Sprintf("cluster.worker.%d.update.ms", i)].Count)
	}
	if perWorker == 0 {
		t.Error("no per-worker update latency histogram recorded the round trip")
	}
	if snap.Counters["server.cmd.update.count"] == 0 {
		t.Error("embedded workers' server.cmd.update.count missing (registry not shared with the spawn pool)")
	}

	// The metrics wire command reports the same registry.
	resp, err := c.Do(&server.Request{Cmd: "metrics"})
	if err != nil {
		t.Fatalf("metrics command: %v", err)
	}
	var wire obs.Snapshot
	if err := json.Unmarshal(resp.Obs, &wire); err != nil {
		t.Fatalf("wire metrics document does not parse: %v\n%s", err, resp.Obs)
	}
	if wire.Counters["cluster.update.count"] != snap.Counters["cluster.update.count"] {
		t.Errorf("wire cluster.update.count %d != HTTP %d",
			wire.Counters["cluster.update.count"], snap.Counters["cluster.update.count"])
	}

	// /healthz reports the live session's fragments while the client
	// connection (and with it the per-connection cluster) is open.
	code, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	if !strings.Contains(string(body), `"fragments"`) || !strings.Contains(string(body), `"primaryAlive":true`) {
		t.Errorf("/healthz missing fragment liveness:\n%s", body)
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}

	// A profile command through the front end returns the request's trace
	// record, nesting one record per worker under the trace id it sent. A
	// plain match is traced by the always-on ring, which keeps its round
	// trips but asks the workers for no records.
	const pattern = "qgp\nn xo person *\nn z person\ne xo z follow >=3\n"
	presp, err := c.ProfileMatch(pattern, nil)
	if err != nil {
		t.Fatalf("profile match: %v", err)
	}
	var prof obs.TraceRecord
	if err := json.Unmarshal(presp.Profile, &prof); err != nil || joined(prof) != 2 {
		t.Errorf("profile document does not nest 2 worker records: %v\n%s", err, presp.Profile)
	}
	if _, err := c.Match(pattern, nil); err != nil {
		t.Fatalf("match: %v", err)
	}

	// Prometheus exposition of the same registry.
	code, body = get("/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=prom status %d", code)
	}
	prom := string(body)
	if !strings.Contains(prom, "qgp_cluster_update_count 1") || !strings.Contains(prom, `_bucket{le=`) {
		t.Errorf("prom exposition missing counters or buckets:\n%.2000s", prom)
	}

	// The trace ring buffer retained the fan-outs as structured records.
	code, body = get("/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
	var traces []obs.TraceRecord
	if err := json.Unmarshal(body, &traces); err != nil || len(traces) == 0 {
		t.Fatalf("/debug/traces = %v\n%s", err, body)
	}
	seen := map[string]bool{}
	for _, tr := range traces {
		seen[tr.Op] = true
		want := 0
		if tr.Op == "profile" {
			want = 2
		}
		if joined(tr) != want {
			t.Errorf("%s trace %d nests %d worker records under its id, want %d: %+v", tr.Op, tr.ID, joined(tr), want, tr)
		}
	}
	if !seen["update"] || !seen["match"] || !seen["profile"] {
		t.Errorf("trace buffer missing update/match/profile ops: %v", seen)
	}

	// -trace wrote structured fan-out lines to the process log.
	if !strings.Contains(logBuf.String(), "op=update") {
		t.Errorf("no trace line for the update in the process log:\n%s", logBuf.String())
	}
}

// joined counts the worker records rec nests that carry its trace id.
func joined(rec obs.TraceRecord) int {
	n := 0
	for _, sp := range rec.Spans {
		var child obs.TraceRecord
		if json.Unmarshal(sp.Child, &child) == nil && child.ID == rec.ID {
			n++
		}
	}
	return n
}
