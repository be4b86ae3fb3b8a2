package resolver

import (
	"sync/atomic"

	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// resolverStats are the resolver's internal event counters. They are plain
// atomics bumped inline on the hot path — no registry dependency — and only
// read at scrape time through the CounterFunc views RegisterMetrics installs.
type resolverStats struct {
	answerHits        atomic.Uint64
	answerMisses      atomic.Uint64
	staleServes       atomic.Uint64
	cachedErrorServes atomic.Uint64
	delegationHits    atomic.Uint64
	delegationMisses  atomic.Uint64
	retries           atomic.Uint64
	timeouts          atomic.Uint64
	malformed         atomic.Uint64
	invalidResponses  atomic.Uint64
	tcpFallbacks      atomic.Uint64
	servfails         atomic.Uint64
	upstreamServfails atomic.Uint64
}

// RegisterMetrics publishes the resolver's counters — including the
// pre-existing QueryCount/ResolutionCount atomics, whose ratio is the query
// amplification — as views on reg. The hot path is untouched: the registry
// reads the atomics at scrape time. The RTT histogram is the one metric with
// a write-side hook; it stays nil (and therefore free) until a registry asks
// for it.
func (r *Resolver) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("edelab_resolver_resolutions_total",
		"Client Resolve calls.", r.ResolutionCount.Load)
	reg.CounterFunc("edelab_resolver_queries_total",
		"Outgoing queries to authoritative servers.", r.QueryCount.Load)
	reg.CounterFunc("edelab_dnssec_verifies_total",
		"Cryptographic signature verifications performed by the validator.",
		func() uint64 { return r.Cache.VerifyStats().Verifies })
	reg.CounterFunc("edelab_dnssec_verify_memo_hits_total",
		"Signature checks answered by the verified-signature memo instead of a verification.",
		func() uint64 { return r.Cache.VerifyStats().MemoHits })

	cacheEvent := func(layer, event string, c *atomic.Uint64) {
		reg.CounterFunc("edelab_resolver_cache_events_total",
			"Cache outcomes by layer: answer-cache hits/misses, stale and cached-error serves, delegation-cache hits/misses.",
			c.Load, telemetry.L("layer", layer), telemetry.L("event", event))
	}
	cacheEvent("answer", "hit", &r.stats.answerHits)
	cacheEvent("answer", "miss", &r.stats.answerMisses)
	cacheEvent("answer", "stale_serve", &r.stats.staleServes)
	cacheEvent("answer", "error_serve", &r.stats.cachedErrorServes)
	cacheEvent("delegation", "hit", &r.stats.delegationHits)
	cacheEvent("delegation", "miss", &r.stats.delegationMisses)

	reg.GaugeFunc("edelab_resolver_cache_entries",
		"Live entries per cache layer.",
		func() float64 { return float64(r.Cache.Len()) }, telemetry.L("layer", "answer"))
	reg.GaugeFunc("edelab_resolver_cache_entries",
		"Live entries per cache layer.",
		func() float64 { return float64(r.Cache.DelegationLen()) }, telemetry.L("layer", "delegation"))
	reg.GaugeFunc("edelab_resolver_cache_entries",
		"Live entries per cache layer.",
		func() float64 { return float64(r.Cache.KeyLen()) }, telemetry.L("layer", "keys"))

	transportEvent := func(event string, c *atomic.Uint64) {
		reg.CounterFunc("edelab_resolver_transport_events_total",
			"Transport-level events: retries, timeouts, malformed datagrams, invalid responses, RFC 7766 TCP fallbacks, terminal SERVFAILs.",
			c.Load, telemetry.L("event", event))
	}
	transportEvent("retry", &r.stats.retries)
	transportEvent("timeout", &r.stats.timeouts)
	transportEvent("malformed", &r.stats.malformed)
	transportEvent("invalid_response", &r.stats.invalidResponses)
	transportEvent("tcp_fallback", &r.stats.tcpFallbacks)
	transportEvent("servfail", &r.stats.servfails)
	transportEvent("upstream_servfail", &r.stats.upstreamServfails)

	r.rttHist.Store(reg.Histogram("edelab_resolver_rtt_seconds",
		"Upstream exchange round-trip time."))
}

// TransportStats is a point-in-time snapshot of the resolver's cumulative
// transport-event counters. The campaign governor reads it on an interval
// and differences consecutive snapshots to estimate the current
// timeout/SERVFAIL rate.
type TransportStats struct {
	Retries          uint64
	Timeouts         uint64
	Malformed        uint64
	InvalidResponses uint64
	TCPFallbacks     uint64
	// Servfails counts terminal SERVFAIL resolutions — mostly broken
	// domains, a property of the population rather than the path.
	Servfails uint64
	// UpstreamServfails counts SERVFAIL responses received from
	// authoritative servers — together with Timeouts, the load-pressure
	// signal a campaign governor reacts to (a shedding or overwhelmed
	// authority answers SERVFAIL; a congested path times out).
	UpstreamServfails uint64
}

// TransportStats returns the current cumulative transport counters.
func (r *Resolver) TransportStats() TransportStats {
	return TransportStats{
		Retries:           r.stats.retries.Load(),
		Timeouts:          r.stats.timeouts.Load(),
		Malformed:         r.stats.malformed.Load(),
		InvalidResponses:  r.stats.invalidResponses.Load(),
		TCPFallbacks:      r.stats.tcpFallbacks.Load(),
		Servfails:         r.stats.servfails.Load(),
		UpstreamServfails: r.stats.upstreamServfails.Load(),
	}
}

// observeRTT feeds the RTT histogram when one is registered; a single atomic
// pointer load otherwise.
func (r *Resolver) observeRTT(seconds float64) {
	if h := r.rttHist.Load(); h != nil {
		h.Observe(seconds)
	}
}
