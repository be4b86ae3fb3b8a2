package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func adminFixture() (*Registry, *TraceLog) {
	reg := populatedRegistry()
	tlog := NewTraceLog(8)
	ctx, tr := StartTrace(context.Background(), "ds-bogus-digest-value.extended-dns-errors.com. A")
	sp := SpanFrom(ctx).Child("resolve")
	sp.Event("condition ds-digest-mismatch")
	sp.End()
	tlog.Add(tr)
	return reg, tlog
}

func get(t *testing.T, h http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String(), rec.Header()
}

func TestAdminMetricsEndpoints(t *testing.T) {
	reg, tlog := adminFixture()
	h := AdminHandler(reg, tlog, func() map[string]any { return map[string]any{"mode": "test"} })

	code, body, hdr := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("content-type = %q", hdr.Get("Content-Type"))
	}
	parseExposition(t, body)
	if code, _, _ = get(t, h, "/metrics.json"); code != http.StatusNotFound {
		t.Fatalf("/metrics.json = %d, want 404: /metrics is the one exposition", code)
	}

	code, body, _ = get(t, h, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz does not parse: %v", err)
	}
	if health["status"] != "ok" || health["mode"] != "test" {
		t.Fatalf("healthz body: %v", health)
	}
	if health["traces_sampled"] != float64(1) {
		t.Fatalf("traces_sampled = %v, want 1", health["traces_sampled"])
	}
}

func TestAdminTraceEndpoint(t *testing.T) {
	reg, tlog := adminFixture()
	h := AdminHandler(reg, tlog, nil)

	code, body, _ := get(t, h, "/api/trace?name=ds-bogus")
	if code != http.StatusOK {
		t.Fatalf("/api/trace = %d: %s", code, body)
	}
	if !strings.Contains(body, "condition ds-digest-mismatch") {
		t.Fatalf("trace body missing condition event:\n%s", body)
	}

	code, body, _ = get(t, h, "/api/trace?name=ds-bogus&format=json")
	if code != http.StatusOK {
		t.Fatalf("/api/trace json = %d", code)
	}
	var snap TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("trace json does not parse: %v", err)
	}
	if snap.Spans != 2 {
		t.Fatalf("trace snapshot spans = %d, want 2", snap.Spans)
	}

	if code, _, _ = get(t, h, "/api/trace?name=absent"); code != http.StatusNotFound {
		t.Fatalf("missing trace = %d, want 404", code)
	}

	hNoLog := AdminHandler(reg, nil, nil)
	if code, _, _ = get(t, hNoLog, "/api/trace"); code != http.StatusServiceUnavailable {
		t.Fatalf("nil tracelog = %d, want 503", code)
	}
	if code, _, _ = get(t, AdminHandler(nil, nil, nil), "/metrics"); code != http.StatusServiceUnavailable {
		t.Fatalf("nil registry = %d, want 503", code)
	}
}

func TestAdminPprofWired(t *testing.T) {
	reg, tlog := adminFixture()
	h := AdminHandler(reg, tlog, nil)
	code, body, _ := get(t, h, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index = %d", code)
	}
}

func TestServeAdminLifecycle(t *testing.T) {
	reg, tlog := adminFixture()
	ctx, cancel := context.WithCancel(context.Background())
	addr, err := ServeAdmin(ctx, "127.0.0.1:0", AdminHandler(reg, tlog, nil))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"ok"`) {
		t.Fatalf("live healthz = %d: %s", resp.StatusCode, b)
	}
	cancel()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := http.Get("http://" + addr.String() + "/healthz"); err != nil {
			return // listener closed
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("admin listener still serving after ctx cancel")
}
