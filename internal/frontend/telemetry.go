package frontend

import (
	"strconv"

	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// Register publishes the frontend counters as views on reg. The atomics and
// the Snapshot API are untouched: the registry reads the same fields
// Snapshot does, at scrape time.
func (m *Metrics) Register(reg *telemetry.Registry) {
	reg.CounterFunc("edelab_frontend_queries_total",
		"Client queries handled, whatever the outcome.", m.queries.Load)
	cacheEvent := func(event string, load func() uint64) {
		reg.CounterFunc("edelab_frontend_cache_events_total",
			"Serving decisions: fresh hits, misses (upstream recursions), RFC 8767 stale serves, error-cache serves, coalesced waits, evictions.",
			load, telemetry.L("event", event))
	}
	cacheEvent("hit", m.hits.Load)
	cacheEvent("wire_hit", m.wireHits.Load)
	cacheEvent("miss", m.misses.Load)
	cacheEvent("stale_serve", m.staleServes.Load)
	cacheEvent("stale_nx_serve", m.staleNXServes.Load)
	cacheEvent("error_serve", m.cachedErrors.Load)
	cacheEvent("coalesced_wait", m.coalesced.Load)
	cacheEvent("eviction", m.evictions.Load)

	failure := func(event string, load func() uint64) {
		reg.CounterFunc("edelab_frontend_failures_total",
			"Degraded outcomes: overload sheds, per-query deadline hits, malformed client queries, upstream SERVFAILs.",
			load, telemetry.L("event", event))
	}
	failure("overload_shed", m.overloads.Load)
	failure("deadline_exceeded", m.deadlines.Load)
	failure("malformed_query", m.refused.Load)
	failure("upstream_failure", m.upstreamFails.Load)

	reg.GaugeFunc("edelab_frontend_inflight",
		"Concurrent upstream recursions right now.",
		func() float64 { return float64(m.inflight.Load()) })
	reg.GaugeFunc("edelab_frontend_inflight_high_water",
		"Peak concurrent upstream recursions since start.",
		func() float64 { return float64(m.inflightHigh.Load()) })

	for i := 0; i < edeCodeSlots; i++ {
		slot := i
		code := strconv.Itoa(i)
		if i == edeCodeSlots-1 {
			code = "unassigned"
		}
		reg.CounterFunc("edelab_frontend_ede_emissions_total",
			"Client responses carrying each RFC 8914 EDE info-code.",
			m.edeCounts[slot].Load, telemetry.L("code", code))
	}
}

// RegisterMetrics publishes the frontend's counters plus its cache-size
// gauge on reg.
func (f *Frontend) RegisterMetrics(reg *telemetry.Registry) {
	f.metrics.Register(reg)
	reg.GaugeFunc("edelab_frontend_cache_entries",
		"Live message-cache entries.",
		func() float64 { return float64(f.CacheLen()) })
}
