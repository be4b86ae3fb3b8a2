package telemetry

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Set stores v: a test fixture's way to give a gauge a value, where the
// serving code moves its gauges with Add or reads them through GaugeFunc.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

func TestCounterGaugeHistogramBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("edelab_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("edelab_test_gauge", "test gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Load(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	h := reg.Histogram("edelab_test_seconds", "test histogram")
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Fatalf("hist sum = %v, want 55.65", h.Sum())
	}
	if h.Max() != 50 {
		t.Fatalf("hist max = %v, want 50", h.Max())
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("edelab_shared_total", "shared", L("side", "left"))
	b := reg.Counter("edelab_shared_total", "shared", L("side", "left"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := reg.Counter("edelab_shared_total", "shared", L("side", "right"))
	if a == other {
		t.Fatal("distinct labels must be distinct series")
	}
	a.Add(3)
	other.Inc()
	if v, ok := reg.Value("edelab_shared_total", L("side", "left")); !ok || v != 3 {
		t.Fatalf("Value(left) = %v, %v", v, ok)
	}
	if v, ok := reg.Value("edelab_shared_total", L("side", "right")); !ok || v != 1 {
		t.Fatalf("Value(right) = %v, %v", v, ok)
	}
	if _, ok := reg.Value("edelab_absent_total"); ok {
		t.Fatal("absent metric must report !ok")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("edelab_kind_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("edelab_kind_total", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("metric names with spaces must panic")
		}
	}()
	reg.Counter("not a name", "x")
}

func TestCounterFuncAndGaugeFuncViews(t *testing.T) {
	reg := NewRegistry()
	var backing uint64 = 7
	reg.CounterFunc("edelab_view_total", "view over a foreign atomic", func() uint64 { return backing })
	reg.GaugeFunc("edelab_view_ratio", "ratio view", func() float64 { return float64(backing) / 2 })
	if v, _ := reg.Value("edelab_view_total"); v != 7 {
		t.Fatalf("counter view = %v, want 7", v)
	}
	backing = 9
	if v, _ := reg.Value("edelab_view_total"); v != 9 {
		t.Fatalf("counter view after update = %v, want 9", v)
	}
	if v, _ := reg.Value("edelab_view_ratio"); v != 4.5 {
		t.Fatalf("gauge view = %v, want 4.5", v)
	}
}

// populatedRegistry builds a registry exercising every metric kind, label
// escaping, and histogram edge cases — the fixture for exposition tests.
func populatedRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("edelab_queries_total", "total queries", L("proto", "udp")).Add(12)
	reg.Counter("edelab_queries_total", "total queries", L("proto", "tcp")).Add(3)
	reg.Gauge("edelab_inflight", "in-flight queries").Set(4)
	reg.Counter("edelab_weird_total", `with "quotes" and \slashes`, L("q", `a"b\c`)).Inc()
	h := reg.Histogram("edelab_rtt_seconds", "upstream rtt")
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2)
	var ext uint64 = 42
	reg.CounterFunc("edelab_external_total", "view", func() uint64 { return ext })
	return reg
}

// promSampleRe matches one exposition sample line.
var promSampleRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

// parseExposition validates Prometheus text format strictly enough to catch
// real mistakes (samples without TYPE, bad label syntax, non-cumulative
// buckets) and returns the samples. export_test.go shares it with the
// external tests that parse a live registry.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	var lastBucket = make(map[string]float64) // family+labels-sans-le -> last cumulative
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				typed[parts[2]] = parts[3]
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparseable sample %q", ln+1, line)
		}
		name := m[1]
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name && typed[trimmed] == "histogram" {
				base = trimmed
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln+1, name)
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(m[3], "+"), 64)
		if err != nil && m[3] != "+Inf" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, m[3], err)
		}
		if m[3] == "+Inf" {
			v = math.Inf(1)
		}
		samples[name+m[2]] = v
		if strings.HasSuffix(name, "_bucket") {
			key := base + stripLE(m[2])
			if v < lastBucket[key] {
				t.Fatalf("line %d: histogram buckets not cumulative at %q", ln+1, line)
			}
			lastBucket[key] = v
		}
	}
	if len(samples) == 0 {
		t.Fatal("exposition contained no samples")
	}
	return samples
}

func stripLE(labels string) string {
	if labels == "" {
		return ""
	}
	inner := strings.Trim(labels, "{}")
	var kept []string
	for _, pair := range strings.Split(inner, ",") {
		if !strings.HasPrefix(pair, "le=") {
			kept = append(kept, pair)
		}
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// TestPrometheusExpositionParses validates the registry's text output on a
// fixture with every metric kind and the escaping edge cases;
// TestLiveRegistryExpositionParses runs the same parse over what the serving
// subsystems register.
func TestPrometheusExpositionParses(t *testing.T) {
	var sb strings.Builder
	if err := populatedRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, sb.String())
	if samples[`edelab_queries_total{proto="udp"}`] != 12 {
		t.Errorf("udp sample = %v, want 12", samples[`edelab_queries_total{proto="udp"}`])
	}
	if samples[`edelab_rtt_seconds_bucket{le="+Inf"}`] != 3 {
		t.Errorf("+Inf bucket = %v, want 3", samples[`edelab_rtt_seconds_bucket{le="+Inf"}`])
	}
	if samples[`edelab_rtt_seconds_count`] != 3 {
		t.Errorf("hist count = %v, want 3", samples[`edelab_rtt_seconds_count`])
	}
	if samples[`edelab_external_total`] != 42 {
		t.Errorf("view sample = %v, want 42", samples[`edelab_external_total`])
	}
	if _, ok := samples[`edelab_weird_total{q="a\"b\\c"}`]; !ok {
		t.Errorf("escaped label sample missing; have %v", samples)
	}
}

func TestExpositionOrderIsStable(t *testing.T) {
	reg := populatedRegistry()
	var a, b strings.Builder
	_ = reg.WritePrometheus(&a)
	_ = reg.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Fatal("two scrapes of an idle registry must be byte-identical")
	}
	if !strings.HasPrefix(a.String(), "# HELP edelab_queries_total") {
		t.Fatalf("families must appear in registration order; got prefix %q", a.String()[:60])
	}
}
