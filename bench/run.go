package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// tracedPacedShare is the share of -seconds each of a traced run's two paced
// phases takes (decorators off, then on); the rest goes to the direct-call
// timings. An untraced run spends all of -seconds in the capacity phase.
const tracedPacedShare = 0.3

// runServing prepares a serving workload's inputs, sets it up p.setups times
// — setup_s is the median, and only the last set-up is measured — then runs
// its phases.
func runServing(p params, w workload, rep *report) error {
	in, err := prepareInputs(p, w, rep)
	if err != nil {
		return err
	}
	var sv *serving
	var total, gen, mat []float64
	for i := 0; i < p.setups; i++ {
		if sv != nil {
			sv.stack.close()
			sv = nil
		}
		if sv, err = setUpServing(p, w, in); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		total = append(total, sv.setupS)
		gen = append(gen, sv.stack.wild.generateS)
		mat = append(mat, sv.stack.wild.materializeS)
		if n := sv.stack.wild.rekeyed; n > 0 {
			rep.info("rekeyed", fmt.Sprintf("set-up %d drew its world %d more times: key-tag clash", i+1, n))
		}
	}
	defer sv.stack.close()
	rep.info("connections", len(sv.clients))
	rep.info("setup_s_each", fmt.Sprintf("%.3f", total))
	// The twin and the earlier set-ups are garbage now: give their pages
	// back, so the measured phase's heap and resident set are its own.
	debug.FreeOSMemory()

	if p.trace {
		return tracedServing(sv, rep, median(gen), median(mat))
	}

	sampler := startSampler(nil)
	capa := sv.capacityPhase(p.measure)
	sampler.done()
	rep.count("capacity phase", capa.st)
	if sv.exhausted() {
		rep.fail("the miss sequence ran out of never-seen names before %v had passed: raise missPerSecond", p.measure)
	}
	rep.info("capacity_answers", capa.st.verified.Load())
	rep.info("capacity_slice_ops_per_s", fmt.Sprintf("%.0f", capa.rates))

	rep.endToEnd(median(total), capa.opsPerS, capa.cpuPerOp, sampler)
	return nil
}

// flagLateness marks a paced phase whose generator ran later than the
// latency it measured: its percentiles then describe the generator.
func flagLateness(rep *report, paced *phaseStats) {
	if late, p50 := sliceQuantile(paced.late, 0.99), sliceQuantile(paced.lat, 0.50); late > p50 {
		rep.info("flag", fmt.Sprintf("generator lateness p99 %.0f us exceeds latency p50 %.0f us", late/1e3, p50/1e3))
	}
}

// counters is a snapshot of every counter the layers keep, by a short name,
// summed over the stack's replicas; a traced run reports the change across
// its paced phases.
type counters map[string]float64

func (sv *serving) counters() counters {
	c := counters{}
	for _, fe := range sv.stack.frontends {
		s := fe.Metrics().Snapshot()
		c["fe.queries"] += float64(s.Queries)
		c["fe.hits"] += float64(s.Hits)
		c["fe.wire_hits"] += float64(s.WireHits)
		c["fe.coalesced"] += float64(s.CoalescedWaits)
		c["fe.evictions"] += float64(s.Evictions)
		c["fe.overloads"] += float64(s.Overloads)
	}
	reg := sv.stack.reg
	val := func(name string, labels ...telemetry.Label) float64 {
		v, _ := reg.Value(name, labels...) // a family this stack never registered reads 0
		return v
	}
	udp := telemetry.L("transport", transport.TransportUDP)
	c["udp.rounds"] = val("edelab_frontdoor_udp_batch_rounds_total")
	c["udp.datagrams"] = val("edelab_frontdoor_udp_batch_datagrams_total")
	c["udp.truncations"] = val("edelab_frontdoor_truncations_total", udp)
	c["udp.errors"] = val("edelab_frontdoor_errors_total", udp)
	c["udp.queries"] = val("edelab_frontdoor_queries_total", udp)
	for _, tr := range []string{transport.TransportUDP, transport.TransportTCP} {
		c["sheds"] += val("edelab_frontdoor_sheds_total", telemetry.L("transport", tr))
	}
	c["cluster.routed_remote"] = val("edelab_cluster_routed_total", telemetry.L("replica", remoteReplica))
	c["cluster.takeovers"] = val("edelab_cluster_takeovers_total")
	c["cluster.spills"] = val("edelab_cluster_spills_total")
	c["cluster.broadcasts"] = val("edelab_cluster_broadcasts_total")
	for _, r := range sv.stack.resolvers {
		c["res.queries"] += float64(r.QueryCount.Load())
		c["res.resolutions"] += float64(r.ResolutionCount.Load())
		c["res.timeouts"] += float64(r.TransportStats().Timeouts)
	}
	st := sv.stack.wild.Net.Stats()
	c["net.queries"], c["net.lost"] = float64(st.Queries), float64(st.Lost)
	return c
}

// since returns the change from before to c.
func (c counters) since(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// recentQueries returns the query messages (and names) of up to n of the
// operations sent most recently, without repeats: names the frontends hold.
func (sv *serving) recentQueries(n int) (queries [][]byte, names []dnswire.Name) {
	seen := make(map[int]bool)
	for k := int(sv.nextOp.Load()) - 1; k >= 0 && len(queries) < n; k-- {
		if qi, ok := sv.in.op(k); ok && !seen[qi] {
			seen[qi] = true
			queries, names = append(queries, sv.in.framed[qi][2:]), append(names, sv.in.names[qi])
		}
		if sv.in.draws != nil && len(seen) == len(sv.in.framed) {
			break
		}
	}
	return queries, names
}

// tracedServing is a serving workload's -trace 1 run: the paced phase with
// the seam decorators off, the same phase with them recording, then the
// direct-call timings on the same inputs.
func tracedServing(sv *serving, rep *report, genS, matS float64) error {
	p, tr := sv.p, sv.stack.tracer
	l := layers{"population.generate_s": genS, "population.materialize_s": matS}
	pacedLen := time.Duration(float64(p.measure) * tracedPacedShare)
	rep.info("paced_rate_qps", sv.w.rate/p.rateDiv)
	before := sv.counters()
	mem := readMem()
	sampler := startSampler(nil)
	plain := sv.pacedPhase(pacedLen)
	md := memSince(mem)
	tr.on.Store(true)
	traced := sv.pacedPhase(pacedLen)
	tr.on.Store(false)
	sampler.done()
	d := sv.counters().since(before)
	rep.count("untraced paced phase", plain)
	rep.count("traced paced phase", traced)
	flagLateness(rep, plain)
	if sv.exhausted() {
		rep.fail("the miss sequence ran out of never-seen names in the paced phases: raise missPerSecond")
	}

	l["frontend.wire_hit_ratio"] = ratio(d["fe.wire_hits"], d["fe.queries"])
	l["frontend.hit_ratio"] = ratio(d["fe.hits"], d["fe.queries"])
	l["frontend.coalesced"] = d["fe.coalesced"]
	l["frontend.evictions"] = d["fe.evictions"]
	l["frontend.sheds"] = d["fe.overloads"]
	for _, fe := range sv.stack.frontends {
		l["frontend.inflight_high"] = max(l["frontend.inflight_high"], float64(fe.Metrics().Snapshot().InflightHighWater))
	}
	l["transport.udp_batch_mean"] = ratio(d["udp.datagrams"], d["udp.rounds"])
	l["transport.sheds"] = d["sheds"]
	l["transport.truncations"] = d["udp.truncations"]
	l["transport.formerr"] = d["udp.errors"]
	l["cluster.forward_share"] = ratio(d["cluster.routed_remote"], d["udp.queries"])
	l["cluster.takeovers"] = d["cluster.takeovers"]
	l["cluster.spills"] = d["cluster.spills"]
	l["cluster.broadcasts"] = d["cluster.broadcasts"]
	l["resolver.queries_per_resolution"] = ratio(d["res.queries"], d["res.resolutions"])
	l["resolver.timeouts"] = d["res.timeouts"]
	for _, r := range sv.stack.resolvers {
		l["resolver.answer_cache_len"] += float64(r.Cache.Len())
		l["resolver.delegation_len"] += float64(r.Cache.DelegationLen())
	}
	l["netsim.queries"], l["netsim.lost"] = d["net.queries"], d["net.lost"]

	ops := float64(plain.verified.Load())
	l["proc.allocs_per_op"], l["proc.alloc_bytes_per_op"] = ratio(float64(md.mallocs), ops), ratio(float64(md.bytes), ops)
	l["proc.gc_cycles"], l["proc.gc_pause_total_ms"] = float64(md.gcCycles), float64(md.gcPauseNS)/1e6
	l["proc.goroutines_peak"] = float64(sampler.goroutinesPeak)
	l["loadgen.lat_p50_us"] = sliceQuantile(plain.lat, 0.50) / 1e3
	l["loadgen.lat_p99_us"] = sliceQuantile(plain.lat, 0.99) / 1e3
	rep.info("paced_samples_per_slice", plain.lat[0].n)
	l["loadgen.late_p50_us"] = sliceQuantile(plain.late, 0.50) / 1e3
	l["loadgen.late_p99_us"] = sliceQuantile(plain.late, 0.99) / 1e3
	l["loadgen.send_errors"] = float64(plain.sendErrors.Load() + traced.sendErrors.Load())
	l["trace.overhead_share"] = ratio(sliceQuantile(traced.lat, 0.50), sliceQuantile(plain.lat, 0.50)) - 1

	// Direct-call timings, with the sockets idle.
	queries, names := sv.recentQueries(1000)
	if err := codecTimings(l, queries, plain.samples); err != nil {
		return err
	}
	fe := sv.stack.frontends[0]
	if cl := sv.stack.cluster; cl != nil {
		if err := clusterTimings(l, cl, names, queries); err != nil {
			return err
		}
		var own [][]byte // frontends[0] is replica r0: time it on the names it owns
		for i, q := range queries {
			if cl.OwnerID(names[i], dnswire.TypeA, false) == localReplicas[0] {
				own = append(own, q)
			}
		}
		queries = own
	}
	if err := frontendTimings(l, fe, queries); err != nil {
		return err
	}
	if err := wildTimings(l, sv.stack.wild.Wild); err != nil {
		return err
	}
	if err := transportTimings(l); err != nil {
		return err
	}

	spans := tr.spans()
	orphans := link(spans)
	spanMetrics(l, spans, sv.stack.network)
	path, err := writeTrace("out", sv.w.name, spans)
	if err != nil {
		return err
	}
	rep.info("trace_file", path)
	rep.info("trace_spans", len(spans))
	rep.info("trace_unmatched_spans", orphans)
	l.print(rep)
	return nil
}

// spanMetrics turns linked spans into the span-derived layer metrics. A
// layer's self time is its span minus what its children cover.
//
// trace.layer_sum_share asks whether the ledger is complete. For each query
// it adds bare transport (the echo round trip measured with a constant
// handler) to everything recorded behind the front-door seam and divides by
// the client's round trip; the metric is the median of that share across
// queries. A sum over all queries would be a statement about the few that
// waited longest in a socket buffer, outside every layer.
func spanMetrics(l layers, spans []span, network string) {
	self := selfTimes(spans)
	hasUpstream := make(map[int32]bool)
	for _, s := range spans {
		if s.Seam == seamUpstream && s.Parent >= 0 {
			hasUpstream[s.Parent] = true
		}
	}
	var sum, selfSum [numSeams]float64
	var n [numSeams]float64
	var missN, missDur, missSelf float64
	behindDoor := make(map[int32]float64) // by client span
	for _, s := range spans {
		sum[s.Seam] += float64(s.dur())
		selfSum[s.Seam] += float64(self[s.ID])
		n[s.Seam]++
		if (s.Seam == seamHandle || s.Seam == seamReplicaHandle) && hasUpstream[s.ID] {
			missN++
			missDur += float64(s.dur())
			missSelf += float64(self[s.ID])
		}
		if (s.Seam == seamWire || s.Seam == seamHandle) && s.Parent >= 0 {
			behindDoor[s.Parent] += float64(s.dur())
		}
	}
	l["frontend.handle_miss_us"] = ratio(missDur, missN) / 1e3
	l["frontend.self_miss_us"] = ratio(missSelf, missN) / 1e3
	l["resolver.resolve_us"] = ratio(sum[seamUpstream], n[seamUpstream]) / 1e3
	l["resolver.self_us"] = ratio(selfSum[seamUpstream], n[seamUpstream]) / 1e3
	l["netsim.endpoint_ns"] = ratio(sum[seamEndpoint], n[seamEndpoint])
	echo := l["transport.udp_echo_rtt_us"]
	if network == "tcp" {
		echo = l["transport.tcp_echo_rtt_us"]
	}
	var shares []float64
	for _, s := range spans {
		if s.Seam == seamClient && s.dur() > 0 {
			shares = append(shares, (echo*1e3+behindDoor[s.ID])/float64(s.dur()))
		}
	}
	l["trace.layer_sum_share"] = median(shares)
}
