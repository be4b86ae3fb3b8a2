package telemetry

import (
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers every write path (counters, gauges,
// histograms, late registration) from 32 goroutines while scrapers render
// both exposition formats. Run under -race in CI; the companion test that
// drives the same registry from 32 real scan workers lives in
// internal/scan/telemetry_test.go.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("edelab_conc_total", "concurrent counter")
	g := reg.Gauge("edelab_conc_gauge", "concurrent gauge")
	h := reg.Histogram("edelab_conc_seconds", "concurrent histogram")

	const workers = 32
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) / 1000)
				// Late registration races against scrapes.
				reg.Counter("edelab_conc_labelled_total", "per-worker series",
					L("worker", fmt.Sprintf("%d", w%4))).Inc()
				if i%100 == 0 {
					reg.CounterFunc("edelab_conc_view_total", "racing view",
						func() uint64 { return c.Load() })
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if got := c.Load(); got != workers*iters {
				t.Fatalf("counter = %d, want %d", got, workers*iters)
			}
			if got := h.Count(); got != workers*iters {
				t.Fatalf("histogram count = %d, want %d", got, workers*iters)
			}
			if got := g.Load(); got != workers*iters {
				t.Fatalf("gauge = %v, want %d", got, workers*iters)
			}
			var total uint64
			for lbl := 0; lbl < 4; lbl++ {
				v, ok := reg.Value("edelab_conc_labelled_total", L("worker", fmt.Sprintf("%d", lbl)))
				if !ok {
					t.Fatalf("labelled series %d missing", lbl)
				}
				total += uint64(v)
			}
			if total != workers*iters {
				t.Fatalf("labelled sum = %d, want %d", total, workers*iters)
			}
			return
		default:
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
}
