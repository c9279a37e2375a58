package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, b
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test.count").Add(5)
	healthy := true
	health := func() (interface{}, error) {
		if !healthy {
			return nil, errors.New("a fragment has no live primary")
		}
		return map[string]interface{}{"status": "ok", "fragments": 2}, nil
	}
	d, err := Serve("127.0.0.1:0", HandlerConfig{Registry: reg, Health: health})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := fmt.Sprintf("http://%s", d.Addr())

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics body does not parse: %v\n%s", err, body)
	}
	if snap.Counters["test.count"] != 5 {
		t.Fatalf("/metrics missing counter: %s", body)
	}

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(body, &doc); err != nil || doc["status"] != "ok" {
		t.Fatalf("/healthz body wrong: %v %s", err, body)
	}

	healthy = false
	code, body = get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy /healthz status %d, want 503: %s", code, body)
	}

	code, _ = get(t, base+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}

	code, _ = get(t, base+"/nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

// TestDebugServerNilRegistry: the endpoint must stay up (serving "{}")
// when no registry is wired, matching the nil-safe instrument contract.
func TestDebugServerNilRegistry(t *testing.T) {
	d, err := Serve("127.0.0.1:0", HandlerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := fmt.Sprintf("http://%s", d.Addr())
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || string(body) != "{}" {
		t.Fatalf("nil-registry /metrics = %d %q", code, body)
	}
	code, body = get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("nil-health /healthz = %d %s", code, body)
	}
}
