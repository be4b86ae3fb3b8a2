package main

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/extended-dns-errors/edelab/internal/cluster"
	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// endToEndMetrics is BENCHMARK.json's end_to_end list: what an untraced run
// prints, on every workload (a test keeps the two equal).
var endToEndMetrics = []layerMetric{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"cpu_us_per_op", "us"},
	{"peak_heap_mib", "MiB"}, {"rss_peak_mib", "MiB"},
}

// endToEnd prints an untraced run's metrics. s sampled the measured phase.
func (r *report) endToEnd(setupS, opsPerS, cpuUSPerOp float64, s *sampler) {
	vs := []float64{setupS, opsPerS, cpuUSPerOp, float64(s.heapPeak) / (1 << 20), float64(s.rssPeak) / (1 << 20)}
	for i, m := range endToEndMetrics {
		r.metric(m.name, vs[i], m.unit)
	}
}

// layerMetric names one metric. BENCHMARK.json's per_layer list is
// this table (a test keeps them equal). A traced run prints every one: a
// layer the workload's stack does not contain, or a counter nothing moved,
// reads 0.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"transport.udp_echo_rtt_us", "us"}, {"transport.tcp_echo_rtt_us", "us"},
	{"transport.tcp_first_answer_us", "us"}, {"transport.dot_first_answer_us", "us"},
	{"transport.doh_first_answer_us", "us"}, {"transport.udp_batch_mean", "count"},
	{"transport.sheds", "count"}, {"transport.truncations", "count"}, {"transport.formerr", "count"},
	{"dnswire.scan_ns", "ns"}, {"dnswire.unpack_ns", "ns"}, {"dnswire.pack_ns", "ns"},
	{"frontend.servewire_ns", "ns"}, {"frontend.wire_hit_ratio", "ratio"},
	{"frontend.handle_hit_ns", "ns"}, {"frontend.hit_ratio", "ratio"},
	{"frontend.handle_miss_us", "us"}, {"frontend.self_miss_us", "us"},
	{"frontend.coalesced", "count"}, {"frontend.evictions", "count"},
	{"frontend.sheds", "count"}, {"frontend.inflight_high", "count"},
	{"resolver.resolve_us", "us"}, {"resolver.self_us", "us"},
	{"resolver.queries_per_resolution", "ratio"}, {"resolver.timeouts", "count"},
	{"resolver.answer_cache_len", "count"}, {"resolver.delegation_len", "count"},
	{"netsim.exchange_ns", "ns"}, {"netsim.endpoint_ns", "ns"},
	{"netsim.queries", "count"}, {"netsim.lost", "count"},
	{"dnssec.check_rrset_ns", "ns"}, {"dnssec.match_ds_ns", "ns"},
	{"cluster.owner_lookup_ns", "ns"}, {"cluster.route_local_ns", "ns"},
	{"cluster.forward_hop_us", "us"}, {"cluster.forward_share", "ratio"},
	{"cluster.takeovers", "count"}, {"cluster.spills", "count"}, {"cluster.broadcasts", "count"},
	{"scan.resolve_us_per_domain", "us"}, {"scan.aggregate_add_ns", "ns"},
	{"scan.snapshot_encode_ms", "ms"}, {"scan.snapshot_bytes", "B"}, {"scan.skipped", "count"},
	{"campaign.warmup_s", "s"}, {"campaign.checkpoints", "count"},
	{"campaign.checkpoint_write_ms", "ms"}, {"campaign.tokens_denied", "count"},
	{"campaign.governor_concurrency_min", "count"},
	{"population.generate_s", "s"}, {"population.materialize_s", "s"},
	{"proc.allocs_per_op", "count"}, {"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_cycles", "count"}, {"proc.gc_pause_total_ms", "ms"}, {"proc.goroutines_peak", "count"},
	{"loadgen.lat_p50_us", "us"}, {"loadgen.lat_p99_us", "us"},
	{"loadgen.late_p50_us", "us"}, {"loadgen.late_p99_us", "us"}, {"loadgen.send_errors", "count"},
	{"trace.overhead_share", "ratio"}, {"trace.layer_sum_share", "ratio"},
}

// layers collects a traced run's per-layer values by name.
type layers map[string]float64

// print emits every per-layer metric in table order.
func (l layers) print(rep *report) {
	for _, m := range layerMetrics {
		rep.metric(m.name, l[m.name], m.unit)
	}
}

// perCall times n calls of f and returns the mean nanoseconds per call. The
// direct-call timings run after the traced phase, on the workload's inputs,
// with nothing else using the cores.
func perCall(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// medianOf runs f n times and returns the median nanoseconds of one run.
func medianOf(n int, f func(i int) error) (float64, error) {
	vs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		vs = append(vs, float64(time.Since(t)))
	}
	return median(vs), nil
}

// codecTimings times the program's codec over this workload's own bytes:
// ScanQuery over its queries, Unpack and Pack over responses it received.
func codecTimings(l layers, queries, responses [][]byte) error {
	if len(queries) == 0 || len(responses) == 0 {
		return errors.New("codec timings: no sample messages")
	}
	l["dnswire.scan_ns"] = perCall(200000, func(i int) { dnswire.ScanQuery(queries[i%len(queries)]) })
	msgs := make([]*dnswire.Message, len(responses))
	var err error
	l["dnswire.unpack_ns"] = perCall(50000, func(i int) {
		j := i % len(responses)
		if m, e := dnswire.Unpack(responses[j]); e != nil {
			err = e
		} else {
			msgs[j] = m
		}
	})
	if err != nil {
		return fmt.Errorf("codec timings: %w", err)
	}
	for _, m := range msgs {
		if m == nil {
			return errors.New("codec timings: fewer than one pass over the samples")
		}
	}
	buf := make([]byte, 0, 4096)
	l["dnswire.pack_ns"] = perCall(50000, func(i int) {
		if _, e := msgs[i%len(msgs)].AppendPack(buf[:0]); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("codec timings: %w", err)
	}
	return nil
}

// wildTimings times the simulated network and the validator on material
// taken from the population: one exchange with a TLD server, one RRSIG check
// over that TLD's DNSKEY RRset, one DS match against the root's DS set.
func wildTimings(l layers, w *population.Wild) error {
	ctx := context.Background()
	var tld *population.TLD
	for _, d := range w.Pop.Domains {
		if d.Class == population.ClassHealthy && !d.TLD.BogusDenial && !d.TLD.NoProof {
			tld = d.TLD
			break
		}
	}
	if tld == nil {
		return errors.New("wild timings: no healthy domain")
	}
	var names []dnswire.Name
	for _, d := range w.Pop.Domains {
		if d.TLD == tld && len(names) < 256 {
			names = append(names, d.Name)
		}
	}
	var err error
	l["netsim.exchange_ns"] = perCall(4000, func(i int) {
		if _, _, e := w.Net.Exchange(ctx, tld.Addr, dnswire.NewQuery(uint16(i), names[i%len(names)], dnswire.TypeA)); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("wild timings: exchange with %s: %w", tld.Name, err)
	}

	keyResp, _, err := w.Net.Exchange(ctx, tld.Addr, dnswire.NewQuery(1, tld.Name, dnswire.TypeDNSKEY))
	if err != nil {
		return fmt.Errorf("wild timings: DNSKEY %s: %w", tld.Name, err)
	}
	dsResp, _, err := w.Net.Exchange(ctx, w.Roots[0], dnswire.NewQuery(2, tld.Name, dnswire.TypeDS))
	if err != nil {
		return fmt.Errorf("wild timings: DS %s: %w", tld.Name, err)
	}
	var rrs, sigs []dnswire.RR
	var keys []dnswire.DNSKEY
	var dsSet []dnswire.DS
	for _, rr := range keyResp.Answer {
		switch d := rr.Data.(type) {
		case dnswire.DNSKEY:
			rrs, keys = append(rrs, rr), append(keys, d)
		case dnswire.RRSIG:
			sigs = append(sigs, rr)
		}
	}
	for _, rr := range dsResp.Answer {
		if d, ok := rr.Data.(dnswire.DS); ok {
			dsSet = append(dsSet, d)
		}
	}
	if len(keys) == 0 || len(sigs) == 0 || len(dsSet) == 0 {
		return fmt.Errorf("wild timings: %s has %d keys, %d signatures, %d DS", tld.Name, len(keys), len(sigs), len(dsSet))
	}
	sup, now := dnssec.CloudflareSupport(), uint32(w.Now().Unix())
	if chk := dnssec.CheckRRset(rrs, sigs, keys, now, sup); chk.Status != dnssec.SigOK {
		return fmt.Errorf("wild timings: DNSKEY RRset of %s does not validate: %v", tld.Name, chk.Status)
	}
	l["dnssec.check_rrset_ns"] = perCall(300, func(int) { dnssec.CheckRRset(rrs, sigs, keys, now, sup) })
	l["dnssec.match_ds_ns"] = perCall(3000, func(int) { dnssec.MatchDS(tld.Name, dsSet, keys, sup) })
	return nil
}

// transportTimings measures bare socket plus transport cost: a
// transport.Server whose handler answers from a constant, so nothing behind
// the front door is in the round trip. UDP and TCP are window-1 round trips
// on one connection; the first-answer timings dial afresh each time.
func transportTimings(l layers) error {
	ctx, cancel := context.WithCancel(context.Background())
	s := &stack{cancel: cancel}
	defer s.close()
	static := netsim.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.RecursionAvailable = true
		return r, nil
	})
	srv := transport.NewServer(transport.Config{Handler: static})
	cert, err := transport.SelfSignedCert("localhost", "127.0.0.1")
	if err != nil {
		return err
	}
	serverTLS := &tls.Config{Certificates: []tls.Certificate{cert}}
	clientTLS := &tls.Config{InsecureSkipVerify: true} // the certificate was minted a line above

	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	var ls [3]net.Listener
	for i := range ls {
		if ls[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
	}
	s.wg.Add(4)
	go func() { defer s.wg.Done(); _ = srv.ServeUDP(ctx, uc) }()
	go func() { defer s.wg.Done(); _ = srv.ServeTCP(ctx, ls[0]) }()
	go func() { defer s.wg.Done(); _ = srv.ServeDoT(ctx, ls[1], serverTLS) }()
	go func() { defer s.wg.Done(); _ = srv.ServeDoH(ctx, ls[2], serverTLS) }()

	q := dnswire.NewQuery(1, dnswire.MustName("echo.bench"), dnswire.TypeA)
	framed, err := q.AppendPack(make([]byte, 2, 64))
	if err != nil {
		return err
	}
	framed[0], framed[1] = 0, byte(len(framed)-2)

	echo := func(network, addr string, n int, redial bool) (float64, error) {
		var w *wire
		c := &client{network: network, addr: addr}
		defer func() {
			if w != nil {
				w.conn.Close()
			}
		}()
		return medianOf(n, func(int) error {
			if w == nil {
				if w, err = c.dial(); err != nil {
					return err
				}
				_ = w.conn.SetDeadline(time.Now().Add(30 * time.Second))
			}
			msg := framed
			if w.br == nil {
				msg = framed[2:]
			}
			if _, err := w.conn.Write(msg); err != nil {
				return err
			}
			if _, err := w.recv(); err != nil {
				return err
			}
			if redial {
				w.conn.Close()
				w = nil
			}
			return nil
		})
	}
	var v float64
	if v, err = echo("udp", uc.LocalAddr().String(), 3000, false); err != nil {
		return fmt.Errorf("udp echo: %w", err)
	}
	l["transport.udp_echo_rtt_us"] = v / 1e3
	if v, err = echo("tcp", ls[0].Addr().String(), 3000, false); err != nil {
		return fmt.Errorf("tcp echo: %w", err)
	}
	l["transport.tcp_echo_rtt_us"] = v / 1e3
	if v, err = echo("tcp", ls[0].Addr().String(), 200, true); err != nil {
		return fmt.Errorf("tcp first answer: %w", err)
	}
	l["transport.tcp_first_answer_us"] = v / 1e3
	if v, err = medianOf(200, func(int) error {
		_, err := transport.QueryDoT(ctx, ls[1].Addr().String(), clientTLS, q)
		return err
	}); err != nil {
		return fmt.Errorf("DoT: %w", err)
	}
	l["transport.dot_first_answer_us"] = v / 1e3
	hc := &http.Client{Transport: &http.Transport{TLSClientConfig: clientTLS}}
	defer hc.CloseIdleConnections()
	url := "https://" + ls[2].Addr().String() + transport.DoHPath
	if v, err = medianOf(200, func(int) error {
		_, err := transport.QueryDoH(ctx, hc, url, q, false)
		return err
	}); err != nil {
		return fmt.Errorf("DoH: %w", err)
	}
	l["transport.doh_first_answer_us"] = v / 1e3
	return nil
}

// frontendTimings calls one frontend directly on names it has cached:
// ServeWire (the UDP hit path) and HandleDNS (the hit path TCP and forwarded
// queries take). queries are whole query messages for those names.
func frontendTimings(l layers, fe *frontend.Frontend, queries [][]byte) error {
	var wqs []dnswire.WireQuery
	var msgs []*dnswire.Message
	buf := make([]byte, 0, 2048)
	for _, q := range queries {
		wq, ok := dnswire.ScanQuery(q)
		if !ok {
			return errors.New("frontend timings: benchmark query does not scan")
		}
		if _, hit := fe.ServeWire(wq, 1232, buf[:0]); hit {
			wqs = append(wqs, wq)
		}
		m, err := dnswire.Unpack(q)
		if err != nil {
			return err
		}
		msgs = append(msgs, m)
	}
	if len(wqs) > 0 {
		l["frontend.servewire_ns"] = perCall(200000, func(i int) { fe.ServeWire(wqs[i%len(wqs)], 1232, buf[:0]) })
	}
	if len(msgs) > 0 {
		ctx := context.Background()
		var err error
		l["frontend.handle_hit_ns"] = perCall(50000, func(i int) {
			if _, e := fe.HandleDNS(ctx, msgs[i%len(msgs)]); e != nil {
				err = e
			}
		})
		return err
	}
	return nil
}

// clusterTimings calls the router directly: the ring lookup alone, a wire
// hit on a local owner, and the full forward hop to the remote replica
// (pack → UDP → its front door → unpack), one at a time.
func clusterTimings(l layers, cl *cluster.Cluster, names []dnswire.Name, queries [][]byte) error {
	l["cluster.owner_lookup_ns"] = perCall(200000, func(i int) { cl.OwnerID(names[i%len(names)], dnswire.TypeA, false) })
	var local []dnswire.WireQuery
	var remote []*dnswire.Message
	buf := make([]byte, 0, 2048)
	for i, q := range queries {
		if cl.OwnerID(names[i], dnswire.TypeA, false) == remoteReplica {
			m, err := dnswire.Unpack(q)
			if err != nil {
				return err
			}
			remote = append(remote, m)
		} else if wq, ok := dnswire.ScanQuery(q); ok {
			if _, hit := cl.ServeWire(wq, 1232, buf[:0]); hit {
				local = append(local, wq)
			}
		}
	}
	if len(local) == 0 || len(remote) == 0 {
		return fmt.Errorf("cluster timings: %d locally owned wire hits, %d remotely owned names", len(local), len(remote))
	}
	l["cluster.route_local_ns"] = perCall(200000, func(i int) { cl.ServeWire(local[i%len(local)], 1232, buf[:0]) })
	ctx := context.Background()
	var err error
	l["cluster.forward_hop_us"] = perCall(3000, func(i int) {
		if _, e := cl.HandleDNS(ctx, remote[i%len(remote)]); e != nil {
			err = e
		}
	}) / 1e3
	return err
}
