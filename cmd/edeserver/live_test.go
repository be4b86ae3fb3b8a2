package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/pem"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/loadgen"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// The live tests run edeserver in-process on 127.0.0.1:0 and check it from
// outside, as a client would: DNS over each transport, the closed-loop load
// edeload drives (internal/loadgen), and the admin plane's /metrics.
// Each load keeps edeload's 8 workers and is bounded by a response count,
// not by time: it runs in slices until it passes its threshold, so a
// machine busy with the rest of the suite takes longer instead of failing.

const (
	expiredSigs = "rrsig-exp-all.extended-dns-errors.com"
	validName   = "valid.extended-dns-errors.com"
)

// clusterMix is the qname mix the cluster loads cycle: five names whose
// owners spread over the ring.
var clusterMix = []string{
	validName, "nsec-valid.extended-dns-errors.com", "unsigned.extended-dns-errors.com",
	expiredSigs, "ds-bad-tag.extended-dns-errors.com",
}

// addrs awaits the DNS and admin addresses a started server prints.
func (s *server) addrs(t *testing.T) (dns, admin string) {
	t.Helper()
	return s.await(t, `serving the extended-dns-errors.com testbed on (\S+)\n`),
		"http://" + s.await(t, `admin plane on http://(\S+) `)
}

// scrape reads the admin plane's /metrics into series → value; a series
// the exposition lacks reads 0 and is absent from the map.
func scrape(t *testing.T, admin string) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, l := range strings.Split(get(t, admin+"/metrics"), "\n") {
		i := strings.LastIndexByte(l, ' ')
		if i < 0 || strings.HasPrefix(l, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(l[i+1:], 64); err == nil {
			m[l[:i]] = v
		}
	}
	return m
}

// awaitSeries polls /metrics until series reads want.
func awaitSeries(t *testing.T, admin, series string, want float64) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if scrape(t, admin)[series] == want {
			return
		}
	}
	t.Fatalf("%s never reached %v", series, want)
}

// loadDeadline bounds a load that never reaches its response count.
const loadDeadline = 20 * time.Second

// load runs a closed loop of workers at the server endpoint in slices of d
// until more than min responses have come back and until (when set) holds,
// cycling names (valid.extended-dns-errors.com when none are given). Only
// the first slice has a warm-up, which fills the caches; every later query
// is counted, so no timeout or error goes unrecorded. Each slice that got
// responses must show a sane latency spread, p99 ≥ p50 > 0. The result
// sums the slices' counts and has nothing else.
func load(t *testing.T, server string, workers int, d time.Duration, min uint64, until func() bool, names ...string) loadgen.Result {
	t.Helper()
	ep, err := transport.ParseEndpoint(server)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		names = []string{validName}
	}
	mix := make([]dnswire.Name, len(names))
	for i, n := range names {
		mix[i] = dnswire.MustName(n)
	}
	cfg := loadgen.Config{
		Server: ep, Concurrency: workers, Duration: d, Warmup: 50 * time.Millisecond,
		Mix: mix, QType: dnswire.TypeA, Timeout: 2 * time.Second,
	}
	var total loadgen.Result
	for deadline := time.Now().Add(loadDeadline); ; cfg.Warmup = 0 {
		r := loadgen.Run(cfg)
		t.Logf("%s", r)
		if l := r.LatencyUS; r.Responses > 0 && !(l.P99 >= l.P50 && l.P50 > 0) {
			t.Errorf("%s: latency p50 %vµs, p99 %vµs; want p99 ≥ p50 > 0", server, l.P50, l.P99)
		}
		total.Sent += r.Sent
		total.Responses += r.Responses
		total.Timeouts += r.Timeouts
		total.Errors += r.Errors
		total.ServFails += r.ServFails
		if total.Responses > min && (until == nil || until()) {
			return total
		}
		if time.Now().After(deadline) {
			t.Fatalf("load at %s: %d responses, %d timeouts, %d errors in %v; want > %d", server,
				total.Responses, total.Timeouts, total.Errors, loadDeadline, min)
		}
	}
}

// clean fails the test unless a load got more than min responses with no
// timeout and no error.
func clean(t *testing.T, what string, r loadgen.Result, min uint64) {
	t.Helper()
	if r.Responses <= min || r.Timeouts != 0 || r.Errors != 0 {
		t.Errorf("%s: %d responses, %d timeouts, %d errors; want > %d, 0, 0", what, r.Responses, r.Timeouts, r.Errors, min)
	}
}

// TestEveryTransportAnswersAlike: one edeserver with all four listeners and
// a certificate from files gives the expired-signature name the same EDE 7
// over UDP, TCP, DoT, DoH GET and DoH POST; DoH hits are wire serves; with
// CD set the answer turns NOERROR and keeps the EDE; a DO=1 and a DO=0
// client cost one miss between them (one cache entry per question); and a
// cancelled run (SIGTERM) drains to exit 0.
func TestEveryTransportAnswersAlike(t *testing.T) {
	certFile, keyFile := writeCert(t)
	s := start(t, "-listen", "udp://127.0.0.1:0,tcp://127.0.0.1:0,tls://127.0.0.1:0,https://127.0.0.1:0",
		"-tls-cert", certFile, "-tls-key", keyFile, "-admin", "127.0.0.1:0")
	udp, admin := s.addrs(t)
	tcp := s.await(t, `TCP listener on (\S+)`)
	dot := s.await(t, `DoT listener on (\S+)`)
	doh := s.await(t, `DoH endpoint on (\S+)`)

	insecure := &tls.Config{InsecureSkipVerify: true}
	dohClient := &http.Client{Transport: &http.Transport{TLSClientConfig: insecure}}
	defer dohClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ask := func(via string, query func(*dnswire.Message) (*dnswire.Message, error), name string, edit func(*dnswire.Message)) *dnswire.Message {
		t.Helper()
		q := dnswire.NewQuery(1, dnswire.MustName(name), dnswire.TypeA)
		if edit != nil {
			edit(q)
		}
		resp, err := query(q)
		if err != nil {
			t.Fatalf("%s %s: %v", via, name, err)
		}
		return resp
	}
	viaUDP := func(q *dnswire.Message) (*dnswire.Message, error) { return transport.QueryUDP(ctx, udp, q) }
	viaTCP := func(q *dnswire.Message) (*dnswire.Message, error) { return transport.QueryTCP(ctx, tcp, q) }
	for _, p := range []struct {
		via   string
		query func(*dnswire.Message) (*dnswire.Message, error)
	}{
		{"UDP", viaUDP},
		{"TCP", viaTCP},
		{"DoT", func(q *dnswire.Message) (*dnswire.Message, error) { return transport.QueryDoT(ctx, dot, insecure, q) }},
		{"DoH GET", func(q *dnswire.Message) (*dnswire.Message, error) {
			return transport.QueryDoH(ctx, dohClient, doh, q, false)
		}},
		{"DoH POST", func(q *dnswire.Message) (*dnswire.Message, error) {
			return transport.QueryDoH(ctx, dohClient, doh, q, true)
		}},
	} {
		if codes := ask(p.via, p.query, expiredSigs, nil).EDECodes(); !slices.Contains(codes, 7) {
			t.Errorf("%s: EDEs %v, want 7 (Signature Expired)", p.via, codes)
		}
	}
	if m := scrape(t, admin); m[`edelab_frontdoor_wire_serves_total{transport="doh"}`] < 1 {
		t.Errorf("DoH wire serves = %v, want ≥ 1: DoH hits go through the same serve core", m[`edelab_frontdoor_wire_serves_total{transport="doh"}`])
	}
	cd := ask("TCP +cd", viaTCP, expiredSigs, func(q *dnswire.Message) { q.CheckingDisabled = true })
	if cd.RCode != dnswire.RCodeNoError || !slices.Contains(cd.EDECodes(), 7) {
		t.Errorf("+cd: %s with EDEs %v, want NOERROR keeping EDE 7", cd.RCode, cd.EDECodes())
	}
	m := scrape(t, admin)
	for series, want := range map[string]float64{
		`edelab_frontdoor_queries_total{transport="dot"}`: 1,
		`edelab_frontdoor_queries_total{transport="doh"}`: 2,
	} {
		if got := m[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	const misses = `edelab_frontend_cache_events_total{event="miss"}`
	before := m[misses]
	for _, do := range []bool{true, false} {
		r := ask("UDP", viaUDP, validName, func(q *dnswire.Message) { q.OPT.DO = do })
		if r.RCode != dnswire.RCodeNoError {
			t.Errorf("%s with DO=%v: %s, want NOERROR", validName, do, r.RCode)
		}
	}
	if after := scrape(t, admin)[misses]; after-before != 1 {
		t.Errorf("a DO=1 and a DO=0 client cost %v misses, want 1", after-before)
	}
	if code := s.stop(t); code != 0 {
		t.Errorf("exit %d after cancel: %s", code, s.stderr.String())
	}
}

// writeCert writes a self-signed certificate and its key as PEM files, the
// -tls-cert/-tls-key pair.
func writeCert(t *testing.T) (certFile, keyFile string) {
	t.Helper()
	cert, err := transport.SelfSignedCert("localhost", "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	key, err := x509.MarshalPKCS8PrivateKey(cert.PrivateKey)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile, keyFile = filepath.Join(dir, "cert.pem"), filepath.Join(dir, "key.pem")
	if os.WriteFile(certFile, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: cert.Certificate[0]}), 0o600) != nil ||
		os.WriteFile(keyFile, pem.EncodeToMemory(&pem.Block{Type: "PRIVATE KEY", Bytes: key}), 0o600) != nil {
		t.Fatal("writing the key pair")
	}
	return certFile, keyFile
}

// TestLoadServesHitsFromTheWireCache: edeserver on two SO_REUSEPORT
// sockets and TCP answers 8 closed-loop workers over UDP, then TCP, with no
// timeout or error and a sane latency spread, and the wire fast path (not
// the slow path) answers the hits. A flood for one broken name is
// wire-served too, but for the slow-path recapture after each tick of the
// EDE 13 countdown: once a second per EDNS class, plus the workers that
// cross a tick before the recapture lands.
func TestLoadServesHitsFromTheWireCache(t *testing.T) {
	if testing.Short() {
		t.Skip("drives four closed-loop loads at a live server")
	}
	s := start(t, "-listen", "udp://127.0.0.1:0?reuseport=2,tcp://127.0.0.1:0", "-admin", "127.0.0.1:0")
	udp, admin := s.addrs(t)
	s.await(t, `SO_REUSEPORT: (2) UDP sockets`)
	servers := map[string]string{"udp": "udp://" + udp, "tcp": "tcp://" + s.await(t, `TCP listener on (\S+)`)}

	for _, l := range []struct {
		tr string
		d  time.Duration
	}{{"udp", 200 * time.Millisecond}, {"tcp", 300 * time.Millisecond}} {
		tr := l.tr
		r := load(t, servers[tr], 8, l.d, 1000, nil)
		clean(t, tr, r, 1000)
		m := scrape(t, admin)
		wire, ok := m[`edelab_frontdoor_wire_serves_total{transport="`+tr+`"}`]
		if !ok || wire <= 1000 {
			t.Errorf("%s: %v wire serves of %d sent, want > 1000", tr, wire, r.Sent)
		}
		if tr == "tcp" && m["edelab_frontdoor_stream_flushes_total"] == 0 {
			t.Errorf("tcp: no stream flushes counted")
		}
	}

	const errorServes = `edelab_frontend_cache_events_total{event="error_serve"}`
	for _, tr := range []string{"udp", "tcp"} {
		wireServes := `edelab_frontdoor_wire_serves_total{transport="` + tr + `"}`
		before := scrape(t, admin)
		began := time.Now()
		r := load(t, servers[tr], 8, 50*time.Millisecond, 100, nil, expiredSigs)
		ticks := int(time.Since(began)/time.Second) + 2
		clean(t, tr+" flood", r, 100)
		if r.ServFails != r.Responses {
			t.Errorf("%s flood: %d SERVFAILs of %d responses, want all", tr, r.ServFails, r.Responses)
		}
		after := scrape(t, admin)
		errs, wire := after[errorServes]-before[errorServes], after[wireServes]-before[wireServes]
		t.Logf("%s: %v of %v cached-error serves wire-served over %d countdown ticks", tr, wire, errs, ticks)
		if wire < errs-float64(2*8*ticks) {
			t.Errorf("%s flood: %v of %v cached-error serves wire-served, want ≥ %v − 2·8·%d", tr, wire, errs, errs, ticks)
		}
	}
}

// TestNoWireCacheServesNoWireHit: -no-wire-cache reaches the transport
// config of the binary, not only of the package: parse-path hits still
// answer over UDP and TCP, and the wire fast path serves nothing.
func TestNoWireCacheServesNoWireHit(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two closed-loop loads at a live server")
	}
	s := start(t, "-listen", "udp://127.0.0.1:0,tcp://127.0.0.1:0", "-no-wire-cache", "-admin", "127.0.0.1:0")
	udp, admin := s.addrs(t)
	tcp := s.await(t, `TCP listener on (\S+)`)
	for tr, server := range map[string]string{"udp": "udp://" + udp, "tcp": "tcp://" + tcp} {
		if r := load(t, server, 2, 50*time.Millisecond, 100, nil); r.Responses <= 100 || r.Errors != 0 {
			t.Errorf("%s: %d responses, %d errors; want > 100 and 0", tr, r.Responses, r.Errors)
		}
	}
	m := scrape(t, admin)
	for _, tr := range []string{"udp", "tcp"} {
		series := `edelab_frontdoor_wire_serves_total{transport="` + tr + `"}`
		if wire, ok := m[series]; !ok || wire != 0 {
			t.Errorf("%s = %v (exposed %v), want 0", series, wire, ok)
		}
	}
}

// TestClusterSurvivesAReplicaKill: a three-replica loopback cluster (a
// primary and two -join secondaries) keeps serving 8 workers with zero
// client errors while one secondary is cancelled (SIGTERM) mid-load — its
// drain hands the ring range to the survivors — and the remotely owned
// queries cross as raw datagrams. A fresh secondary rejoining under the
// same ID gets routed traffic again, still with zero client errors.
func TestClusterSurvivesAReplicaKill(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a four-process cluster's worth of servers under load")
	}
	primary := start(t, "-cluster", "1", "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0")
	dns, admin := primary.addrs(t)
	r1 := start(t, "-join", admin, "-replica-id", "r1", "-listen", "127.0.0.1:0")
	r2 := start(t, "-join", admin, "-replica-id", "r2", "-listen", "127.0.0.1:0")
	awaitSeries(t, admin, "edelab_cluster_replicas", 3)

	// Cancel r1 as the measured load starts: announce-drain must finish the
	// forwarded in-flight queries before it leaves, drainGrace later, with
	// load still running until it has.
	kill := time.AfterFunc(60*time.Millisecond, r1.cancel)
	defer kill.Stop()
	clean(t, "load across the kill", load(t, dns, 8, 650*time.Millisecond, 1000, r1.exited, clusterMix...), 1000)
	if code := r1.stop(t); code != 0 {
		t.Errorf("r1 exit %d after cancel: %s", code, r1.stderr.String())
	}
	m := scrape(t, admin)
	t.Logf("after the kill: replicas %v, relayed %v, takeovers %v", m["edelab_cluster_replicas"],
		m["edelab_frontdoor_relayed_total"], m["edelab_cluster_takeovers_total"])
	if got := m["edelab_cluster_replicas"]; got != 2 {
		t.Errorf("replicas after the kill = %v, want 2", got)
	}
	if got := m["edelab_frontdoor_relayed_total"]; got <= 1000 {
		t.Errorf("relayed = %v, want > 1000: remotely owned queries cross as raw datagrams", got)
	}
	if got := m["edelab_cluster_takeovers_total"]; got <= 0 {
		t.Errorf("takeovers after the kill = %v, want > 0", got)
	}

	const routed = `edelab_cluster_routed_total{replica="r1"}`
	before := m[routed]
	r1 = start(t, "-join", admin, "-replica-id", "r1", "-listen", "127.0.0.1:0")
	awaitSeries(t, admin, "edelab_cluster_replicas", 3)
	clean(t, "load after the rejoin", load(t, dns, 4, 250*time.Millisecond, 500, nil, clusterMix...), 500)
	after := scrape(t, admin)[routed]
	t.Logf("r1 routed: %v before the rejoin, %v after", before, after)
	if after <= before {
		t.Errorf("r1 routed %v before the rejoin, %v after; want growth", before, after)
	}
	// Both secondaries drain at once; each keeps serving for drainGrace.
	r1.cancel()
	r2.cancel()
}

// TestParsedForwardAlone: -no-wire-cache turns the relay off with the wire
// cache, so every remotely owned query takes the parsed forward, which
// stream and DoH clients and failed relays depend on.
func TestParsedForwardAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a two-replica cluster under load")
	}
	primary := start(t, "-cluster", "1", "-no-wire-cache", "-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0")
	dns, admin := primary.addrs(t)
	start(t, "-join", admin, "-replica-id", "r1", "-listen", "127.0.0.1:0")
	awaitSeries(t, admin, "edelab_cluster_replicas", 2)
	clean(t, "load", load(t, dns, 8, 250*time.Millisecond, 1000, nil, clusterMix...), 1000)
	m := scrape(t, admin)
	if relayed, ok := m["edelab_frontdoor_relayed_total"]; !ok || relayed != 0 {
		t.Errorf("relayed = %v (exposed %v), want 0", relayed, ok)
	}
	if got := m[`edelab_cluster_routed_total{replica="r1"}`]; got <= 100 {
		t.Errorf("r1 routed through the parsed forward = %v, want > 100", got)
	}
}
