package transport

import "github.com/extended-dns-errors/edelab/internal/telemetry"

// transports enumerates the metric label values.
var transports = []string{TransportUDP, TransportTCP, TransportDoT, TransportDoH}

// metrics holds the per-transport instrument families. The maps are
// populated once in newMetrics and read-only afterwards, so concurrent
// access needs no locking.
type metrics struct {
	queries  map[string]*telemetry.Counter
	errors   map[string]*telemetry.Counter
	sheds    map[string]*telemetry.Counter
	open     map[string]*telemetry.Gauge
	pipeline *telemetry.Histogram
	// truncations counts UDP responses cut down to the client's EDNS
	// buffer size (TC=1 sent instead of an oversized datagram).
	truncations *telemetry.Counter
	// wireServes counts responses answered by the wire fast path
	// (pre-packed cache bytes patched in place, never touching Handler).
	wireServes map[string]*telemetry.Counter
	// batchRounds / batchDatagrams measure UDP read batching: datagrams
	// per round is their ratio (1.0 means no batching benefit).
	batchRounds    *telemetry.Counter
	batchDatagrams *telemetry.Counter
	// streamFlushes / streamFlushFrames are the stream twin: answer frames
	// per Write of a connection's output buffer is their ratio.
	streamFlushes     *telemetry.Counter
	streamFlushFrames *telemetry.Counter
	// relayed counts UDP queries forwarded to a remote owner as raw
	// datagrams (relay.go); relayFailures the ones that came to nothing, by
	// reason. relayRounds / relayDatagrams are the relay's twin of the
	// batch counters: peer answers per receive round is their ratio.
	relayed        *telemetry.Counter
	relayFailures  map[string]*telemetry.Counter
	relayRounds    *telemetry.Counter
	relayDatagrams *telemetry.Counter
}

// Relay failure reasons: the label values of relayFailures.
const (
	relayExpired   = "expired"    // no answer within the router's RelayTimeout
	relayPeerError = "peer_error" // the peer socket returned an error
	relayUnmatched = "unmatched"  // an answer no pending query asked for; dropped
)

func newMetrics(reg *telemetry.Registry) *metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &metrics{
		queries: make(map[string]*telemetry.Counter, len(transports)),
		errors:  make(map[string]*telemetry.Counter, len(transports)),
		sheds:   make(map[string]*telemetry.Counter, len(transports)),
		open:    make(map[string]*telemetry.Gauge, len(transports)),

		wireServes: make(map[string]*telemetry.Counter, len(transports)),
	}
	for _, tr := range transports {
		l := telemetry.L("transport", tr)
		m.queries[tr] = reg.Counter("edelab_frontdoor_queries_total",
			"Queries received by the front door, by transport.", l)
		m.errors[tr] = reg.Counter("edelab_frontdoor_errors_total",
			"Front-door failures (malformed queries, handler errors, write errors), by transport.", l)
		m.sheds[tr] = reg.Counter("edelab_frontdoor_sheds_total",
			"Queries shed with SERVFAIL + EDE 23 at a connection or pipeline bound, by transport.", l)
		m.open[tr] = reg.Gauge("edelab_frontdoor_open_connections",
			"Currently open client connections, by transport.", l)
		m.wireServes[tr] = reg.Counter("edelab_frontdoor_wire_serves_total",
			"Responses served from pre-packed wire-cache bytes, by transport.", l)
	}
	m.pipeline = reg.Histogram("edelab_frontdoor_pipeline_depth",
		"In-flight pipelined queries on a stream connection when a new query is admitted.")
	m.truncations = reg.Counter("edelab_frontdoor_truncations_total",
		"UDP responses truncated to the client's advertised EDNS buffer size.",
		telemetry.L("transport", TransportUDP))
	m.batchRounds = reg.Counter("edelab_frontdoor_udp_batch_rounds_total",
		"UDP receive rounds (one recvmmsg or ReadFrom call each).")
	m.batchDatagrams = reg.Counter("edelab_frontdoor_udp_batch_datagrams_total",
		"Datagrams received across all UDP receive rounds.")
	m.streamFlushes = reg.Counter("edelab_frontdoor_stream_flushes_total",
		"Writes of a stream connection's output buffer (inline answers only).")
	m.streamFlushFrames = reg.Counter("edelab_frontdoor_stream_flush_frames_total",
		"Answer frames written across all stream output-buffer flushes.")
	m.relayed = reg.Counter("edelab_frontdoor_relayed_total",
		"UDP queries relayed to a remote owner as raw datagrams.")
	m.relayFailures = make(map[string]*telemetry.Counter)
	for _, reason := range []string{relayExpired, relayPeerError, relayUnmatched} {
		m.relayFailures[reason] = reg.Counter("edelab_frontdoor_relay_failures_total",
			"Relayed queries handed back to the parsed path (expired, peer_error) and peer answers dropped (unmatched).",
			telemetry.L("reason", reason))
	}
	m.relayRounds = reg.Counter("edelab_frontdoor_relay_rounds_total",
		"Receive rounds on relay peer sockets (one recvmmsg or ReadFrom call each).")
	m.relayDatagrams = reg.Counter("edelab_frontdoor_relay_datagrams_total",
		"Peer answers received across all relay receive rounds.")
	return m
}
