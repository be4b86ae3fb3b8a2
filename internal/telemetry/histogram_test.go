package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestHistQuantiles: a known distribution comes back with bounded relative
// error, and Max is exact.
func TestHistQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000µs uniform, in seconds.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-6)
	}
	checks := []struct {
		q    float64
		want float64 // seconds
	}{
		{0.50, 500e-6},
		{0.90, 900e-6},
		{0.99, 990e-6},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		lo, hi := c.want*0.95, c.want*1.05
		if got < lo || got > hi {
			t.Errorf("Quantile(%.2f) = %g s, want within 5%% of %g", c.q, got, c.want)
		}
	}
	if h.Max() != 1000e-6 {
		t.Errorf("max = %g, want 1e-3", h.Max())
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 {
		t.Error("empty histogram quantile or max != 0")
	}
}

func TestHistBucketRoundTrip(t *testing.T) {
	for _, ns := range []float64{0, 1, 31, 32, 33, 1000, 12345, 1 << 20, 1 << 40} {
		v := ns * 1e-9
		idx := bucketOf(v)
		rep := bucketMid(idx)
		lo, hi := v-v/16-1e-9, v+v/16+1e-9
		if rep < lo || rep > hi {
			t.Errorf("value %g → bucket %d → representative %g (outside ±1/16)", v, idx, rep)
		}
	}
}

// TestQuantileAccuracy compares Quantile with the exact order statistic of
// a sorted slice: log-uniform durations over nine decades (1µs to 1,000s)
// and the integers 0–128 that pipeline depths take. Every quantile must be
// within half a sub-bucket, 1/64 relative; the per-decade worst case is
// logged for the record.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	durations := make([]float64, 200_000)
	for i := range durations {
		durations[i] = math.Pow(10, -6+9*rng.Float64())
	}
	depths := make([]float64, 0, 129*20)
	for rep := 0; rep < 20; rep++ {
		for d := 0; d <= 128; d++ {
			depths = append(depths, float64(d))
		}
	}
	for _, set := range []struct {
		name string
		vals []float64
	}{{"1µs–1000s", durations}, {"integers 0–128", depths}} {
		var h Histogram
		for _, v := range set.vals {
			h.Observe(v)
		}
		sorted := slices.Clone(set.vals)
		slices.Sort(sorted)
		worst := map[int]float64{} // decade -> worst relative error
		for i := 1; i <= 10_000; i++ {
			q := float64(i) / 10_000
			exact := sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
			got := h.Quantile(q)
			if exact == 0 {
				if got != 0 {
					t.Errorf("%s: Quantile(%g) = %g, want 0", set.name, q, got)
				}
				continue
			}
			rel := math.Abs(got-exact) / exact
			if rel > 1.0/64+1e-12 {
				t.Errorf("%s: Quantile(%g) = %g, exact %g: relative error %.4f > 1/64", set.name, q, got, exact, rel)
			}
			d := int(math.Floor(math.Log10(exact)))
			worst[d] = max(worst[d], rel)
		}
		decades := make([]int, 0, len(worst))
		for d := range worst {
			decades = append(decades, d)
		}
		slices.Sort(decades)
		for _, d := range decades {
			t.Logf("%s: decade 1e%+d: worst relative error %.4f", set.name, d, worst[d])
		}
	}
}

// TestHistogramExposition: inclusive le bounds, +Inf equal to _count,
// cumulative buckets, one fixed le set across scrapes, and a _sum that bad
// values do not poison.
func TestHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("edelab_depth", "depth", L("conn", "a"))
	scrape := func() (map[string]float64, []string) {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		var les []string
		for _, line := range strings.Split(sb.String(), "\n") {
			if _, rest, ok := strings.Cut(line, `le="`); ok {
				les = append(les, rest[:strings.IndexByte(rest, '"')])
			}
		}
		return parseExposition(t, sb.String()), les
	}
	bucket := func(samples map[string]float64, le string) float64 {
		v, ok := samples[fmt.Sprintf(`edelab_depth_bucket{conn="a",le="%s"}`, le)]
		if !ok {
			t.Fatalf("no bucket le=%q", le)
		}
		return v
	}

	_, emptyLE := scrape()
	for _, v := range []float64{0, 1, 2, 2, 3, 1e12, math.NaN(), -1, math.Inf(1), math.Inf(-1)} {
		h.Observe(v)
	}
	samples, les := scrape()
	if !slices.Equal(les, emptyLE) {
		t.Fatalf("le set changed between scrapes:\n%v\n%v", emptyLE, les)
	}
	if len(les) != octaves+2 || les[len(les)-1] != "+Inf" {
		t.Fatalf("le set = %v, want one per power of two and +Inf", les)
	}
	for le, want := range map[string]float64{"0.5": 1, "1": 2, "2": 4, "4": 5, "+Inf": 6} {
		if got := bucket(samples, le); got != want {
			t.Errorf(`le="%s" = %v, want %v`, le, got, want)
		}
	}
	if count := samples[`edelab_depth_count{conn="a"}`]; count != bucket(samples, "+Inf") || count != 6 {
		t.Errorf("_count = %v, +Inf bucket = %v, want both 6", count, bucket(samples, "+Inf"))
	}
	if sum := samples[`edelab_depth_sum{conn="a"}`]; sum != 1e12+8 {
		t.Errorf("_sum = %v, want %v", sum, 1e12+8)
	}
	if h.Max() != 1e12 || h.Quantile(1) != 1e12 {
		t.Errorf("max = %v, Quantile(1) = %v, want the overflow value 1e12 exactly", h.Max(), h.Quantile(1))
	}
}

func TestObserveAllocs(t *testing.T) {
	var h Histogram
	v := 0.0
	if n := testing.AllocsPerRun(1000, func() { v += 1e-4; h.Observe(v) }); n != 0 {
		t.Fatalf("Observe allocates %v per call, want 0", n)
	}
}
