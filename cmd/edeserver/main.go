// Command edeserver serves the paper's testbed zones over a real
// multi-transport front door — UDP always, plus TCP (-tcp), DoT (-tls),
// and DoH (-doh). Point any EDE-aware client (cmd/ededig, dig +ednsopt,
// kdig +tls, curl --doh-url) at it to see the misconfigured zones on the
// wire:
//
//	edeserver -mode resolver -tcp 127.0.0.1:5353 -tls 127.0.0.1:8853 -doh 127.0.0.1:8443 &
//	ededig -tcp -server 127.0.0.1:5353 rrsig-exp-all.extended-dns-errors.com
//	ededig -tls -insecure -server 127.0.0.1:8853 rrsig-exp-all.extended-dns-errors.com
//	ededig -doh https://127.0.0.1:8443/dns-query -insecure valid.extended-dns-errors.com
//
// Without -tls-cert/-tls-key an ephemeral self-signed certificate is
// generated for the TLS listeners, so clients need -insecure (or kdig's
// equivalent). Every transport funnels into the same handler: the EDE
// codes and EXTRA-TEXT a client sees are identical over all of them.
//
// It serves the root, com, extended-dns-errors.com, and all 63 subdomain
// zones from a single socket, answering authoritatively for whichever zone
// matches the query — a consolidated stand-in for the testbed's simulated
// server fleet, useful for wire-level inspection.
//
// With -mode resolver the socket instead fronts a validating recursive
// resolver (Cloudflare profile) over the same testbed through the caching
// serving layer (internal/frontend): sharded message cache, query
// coalescing, RFC 8767 serve-stale (EDE 3/19), an error cache (EDE 13), and
// overload shedding. Clients receive the Extended DNS Errors themselves:
//
//	edeserver -addr 127.0.0.1:5353 -mode resolver &
//	ededig -server 127.0.0.1:5353 rrsig-exp-all.extended-dns-errors.com
//
// With -admin an HTTP admin plane comes up alongside the DNS socket:
//
//	edeserver -addr 127.0.0.1:5353 -mode resolver -admin 127.0.0.1:9970 -trace-sample 1 &
//	curl -s 127.0.0.1:9970/metrics      # Prometheus text exposition
//	curl -s 127.0.0.1:9970/metrics.json # same registry as JSON
//	curl -s 127.0.0.1:9970/healthz
//	curl -s '127.0.0.1:9970/api/trace?name=rrsig-exp-all'
//
// -trace-sample N records every Nth query's full resolution trace — the
// delegation walk, cache decisions, per-server transport attempts, DNSSEC
// verdicts, and where each EDE attached — into a bounded ring readable at
// /api/trace. /debug/pprof/* is also served.
//
// The serving counters (hits, misses, stale serves, coalesced waits, per-EDE
// emissions, ...) are on the admin plane's /metrics. -no-frontend bypasses
// the serving layer and runs one full recursion per packet, the pre-frontend
// behaviour, for comparison.
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5353", "UDP listen address")
	mode := flag.String("mode", "auth", "auth: serve the zones authoritatively; resolver: front a validating recursive resolver with EDE")
	profileName := flag.String("profile", "cloudflare", "vendor profile for -mode resolver (cloudflare, bind, unbound, powerdns, knot, quad9, opendns)")
	noFrontend := flag.Bool("no-frontend", false, "bypass the caching frontend in -mode resolver (one recursion per packet)")
	admin := flag.String("admin", "", "HTTP admin plane address, e.g. 127.0.0.1:9970 (/metrics, /metrics.json, /healthz, /api/trace, /debug/pprof)")
	traceSample := flag.Uint64("trace-sample", 0, "record every Nth query's resolution trace into the /api/trace ring (0 = off; needs -admin to read back)")
	traceRing := flag.Int("trace-ring", 256, "capacity of the sampled-trace ring buffer")
	cacheSize := flag.Int("cache-size", 1<<16, "frontend cache capacity in entries: the bound on every client answer the server holds (the resolver behind the frontend stores none; with -no-frontend the resolver's own cache applies)")
	maxInflight := flag.Int("max-inflight", 512, "bound on concurrent upstream recursions before load shedding")
	queryTimeout := flag.Duration("query-timeout", 5*time.Second, "per-query upstream recursion deadline")
	staleWindow := flag.Duration("stale-window", 24*time.Hour, "RFC 8767 window past expiry in which stale answers may be served")
	chaos := flag.String("chaos", "", "inject faults into the simulated testbed network, e.g. 'loss=0.2,lat=100ms' (see internal/netsim.ParseFaultProfile)")
	chaosSeed := flag.Uint64("chaos-seed", 20230515, "seed for the fault plan; replays deterministically")
	retries := flag.Int("retries", 0, "resolver attempts per authoritative server in -mode resolver (0 = single-shot)")
	retryBudget := flag.Int("retry-budget", 0, "total upstream queries per resolution step in -mode resolver (0 = unlimited)")
	tcpAddr := flag.String("tcp", "", "TCP listen address (RFC 7766 framing with pipelining; empty = disabled)")
	tlsAddr := flag.String("tls", "", "DoT listen address (RFC 7858; empty = disabled)")
	dohAddr := flag.String("doh", "", "DoH listen address serving HTTPS /dns-query (RFC 8484; empty = disabled)")
	tlsCert := flag.String("tls-cert", "", "PEM certificate chain for -tls/-doh (requires -tls-key; omitted = ephemeral self-signed)")
	tlsKey := flag.String("tls-key", "", "PEM private key for -tls/-doh")
	maxConns := flag.Int("max-conns", transport.DefaultMaxConns, "per-listener bound on concurrent stream connections before shedding with EDE 23")
	idleTimeout := flag.Duration("idle-timeout", transport.DefaultIdleTimeout, "stream connection idle timeout")
	reuseport := flag.Int("reuseport", 1, "number of SO_REUSEPORT UDP sockets sharing -addr, one read loop each (linux only for >1)")
	noWireCache := flag.Bool("no-wire-cache", false, "disable the pre-packed wire response cache (every query builds its response from scratch)")
	tcpKeepalive := flag.Duration("tcp-keepalive", 0, "edns-tcp-keepalive idle timeout advertised on TCP/DoT responses (RFC 7828; 0 = not advertised)")
	clusterN := flag.Int("cluster", 0, "run N frontend replicas behind a consistent-hash query router (implies -mode resolver; mounts /api/cluster/ on -admin for -join peers)")
	joinURL := flag.String("join", "", "join an existing cluster as a secondary replica, e.g. http://127.0.0.1:9970 (the primary's -admin base URL)")
	replicaID := flag.String("replica-id", "", "replica identity announced to the cluster with -join (default: derived from the DNS listen address)")
	advertiseAddr := flag.String("advertise", "", "DNS address the primary should forward this replica's ring range to with -join (default: the bound -addr)")
	hotBroadcast := flag.Int("hot-broadcast", 0, "owner cache hits after which an entry's pre-packed wire image is broadcast to every replica (0 = never broadcast)")
	drainGrace := flag.Duration("drain-grace", 500*time.Millisecond, "how long a -join replica keeps serving between announcing drain and leaving on SIGTERM")
	flag.Parse()
	if *clusterN > 0 || *joinURL != "" {
		*mode = "resolver"
	}
	if *clusterN > 0 && *joinURL != "" {
		fmt.Fprintln(os.Stderr, "edeserver: -cluster (primary) and -join (secondary) are mutually exclusive")
		os.Exit(2)
	}
	prof, ok := resolver.ProfileByName(*profileName)
	if !ok {
		fmt.Fprintf(os.Stderr, "edeserver: unknown profile %q\n", *profileName)
		os.Exit(2)
	}

	tb, err := testbed.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "edeserver: %v\n", err)
		os.Exit(1)
	}
	if *chaos != "" {
		fp, err := netsim.ParseFaultProfile(*chaos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edeserver: -chaos: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("injecting faults: %s (seed %d)\n", fp, *chaosSeed)
		tb.Net.SetFaults(netsim.NewFaultPlan(*chaosSeed, fp))
	}

	conns, err := transport.ListenUDPReusePort(context.Background(), *addr, *reuseport)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edeserver: %v\n", err)
		os.Exit(1)
	}
	conn := conns[0]
	if len(conns) > 1 {
		fmt.Printf("SO_REUSEPORT: %d UDP sockets on %s\n", len(conns), conn.LocalAddr())
	}
	fmt.Printf("serving the extended-dns-errors.com testbed on %s (mode %s)\n", conn.LocalAddr(), *mode)
	fmt.Printf("zones: root, com, %s and %d test subdomains\n", testbed.ParentZone, len(tb.Cases))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := telemetry.NewRegistry()
	tb.Net.RegisterMetrics(reg)
	var tlog *telemetry.TraceLog
	if *traceSample > 0 {
		tlog = telemetry.NewTraceLog(*traceRing)
	}
	sampler := telemetry.NewSampler(*traceSample)
	startAdmin := func(mounts ...telemetry.Mount) {
		if *admin == "" {
			return
		}
		h := telemetry.AdminHandler(reg, tlog, func() map[string]any {
			return map[string]any{"mode": *mode, "dns_addr": conn.LocalAddr().String()}
		}, mounts...)
		adminAddr, err := telemetry.ServeAdmin(ctx, *admin, h)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edeserver: -admin: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("admin plane on http://%s (/metrics /metrics.json /healthz /api/trace /debug/pprof)\n", adminAddr)
	}

	if *mode == "resolver" {
		var tcfg *resolver.TransportConfig
		if *retries > 0 || *retryBudget > 0 {
			tcfg = &resolver.TransportConfig{
				Retries:     *retries,
				RetryBudget: *retryBudget,
				Backoff:     50 * time.Millisecond,
			}
		}
		fdOpts := frontDoorOpts{
			tcp: *tcpAddr, dot: *tlsAddr, doh: *dohAddr,
			certFile: *tlsCert, keyFile: *tlsKey,
			maxConns: *maxConns, idleTimeout: *idleTimeout,
			disableWire: *noWireCache, tcpKeepalive: *tcpKeepalive,
		}
		fcfg := frontend.Config{
			Capacity:     *cacheSize,
			MaxInflight:  *maxInflight,
			QueryTimeout: *queryTimeout,
			StaleWindow:  *staleWindow,
		}
		if *clusterN > 0 || *joinURL != "" {
			runClusterMode(ctx, clusterMode{
				tb: tb, conns: conns, prof: prof, tcfg: tcfg,
				fcfg: fcfg, reg: reg, sampler: sampler, tlog: tlog,
				startAdmin: startAdmin, opts: fdOpts,
				replicas: *clusterN, join: *joinURL,
				id: *replicaID, advertise: *advertiseAddr,
				hotThreshold: *hotBroadcast, drainGrace: *drainGrace,
			})
			return
		}
		startAdmin()
		res := tb.NewResolver(prof)
		if tcfg != nil {
			res.Transport = tcfg
		}
		res.RegisterMetrics(reg)
		var front netsim.Handler
		var fe *frontend.Frontend
		if *noFrontend {
			front = forwarder.New(forwarder.ResolverUpstream{R: res})
		} else {
			fe = frontend.New(forwarder.ResolverUpstream{R: res}, fcfg)
			fe.RegisterMetrics(reg)
			front = fe
		}
		front = tracedHandler(front, sampler, tlog)
		// The wire fast path is handed over explicitly: tracedHandler may
		// wrap the frontend in a plain HandlerFunc (hiding its WireServer
		// implementation from NewServer's auto-detect), and without tracing
		// it returns the frontend bare (which auto-detect would find even
		// under -no-wire-cache) — so both wire and disableWire are always
		// set here. Wire hits bypass tracing: they never start a
		// resolution, so there is no trace.
		var wire transport.WireServer
		if fe != nil && !*noWireCache {
			wire = fe
		}
		fdOpts.wire = wire
		if err := serveFrontDoor(ctx, conns, front, reg, fdOpts); err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "edeserver: %v\n", err)
			os.Exit(1)
		}
		return
	}

	startAdmin()

	// Front the whole simulated network through one socket: route each
	// query to the simulated endpoint that would be authoritative for it.
	front := netsim.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if len(q.Question) == 0 {
			r := q.Reply()
			r.RCode = dnswire.RCodeFormErr
			return r, nil
		}
		// Walk the simulated resolution from the root to find the deepest
		// server that answers authoritatively (or with a referral we can
		// follow).
		servers := tb.Roots
		for depth := 0; depth < 10; depth++ {
			resp, next, done := step(ctx, tb, servers, q)
			if done {
				return resp, nil
			}
			servers = next
		}
		r := q.Reply()
		r.RCode = dnswire.RCodeServFail
		return r, nil
	})

	if err := serveFrontDoor(ctx, conns, tracedHandler(front, sampler, tlog), reg, frontDoorOpts{
		tcp: *tcpAddr, dot: *tlsAddr, doh: *dohAddr,
		certFile: *tlsCert, keyFile: *tlsKey,
		maxConns: *maxConns, idleTimeout: *idleTimeout,
		tcpKeepalive: *tcpKeepalive,
	}); err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "edeserver: %v\n", err)
		os.Exit(1)
	}
}

// frontDoorOpts carries the listener flags into serveFrontDoor.
type frontDoorOpts struct {
	tcp, dot, doh     string
	certFile, keyFile string
	maxConns          int
	idleTimeout       time.Duration
	wire              transport.WireServer
	disableWire       bool
	tcpKeepalive      time.Duration
}

// serveFrontDoor runs the transport front door: one ServeUDP read loop per
// UDP socket (several under -reuseport), plus whichever stream/HTTP
// listeners the flags enabled, all funnelled into front. It blocks until
// ctx is cancelled (SIGINT/SIGTERM) — at which point every listener drains
// its in-flight queries — or a listener fails.
func serveFrontDoor(ctx context.Context, conns []net.PacketConn, front netsim.Handler, reg *telemetry.Registry, opts frontDoorOpts) error {
	srv := transport.NewServer(transport.Config{
		Handler:      front,
		MaxConns:     opts.maxConns,
		IdleTimeout:  opts.idleTimeout,
		Wire:         opts.wire,
		DisableWire:  opts.disableWire,
		TCPKeepalive: opts.tcpKeepalive,
		Registry:     reg,
	})

	var tlsConf *tls.Config
	if opts.dot != "" || opts.doh != "" {
		cert, err := frontDoorCert(opts)
		if err != nil {
			return err
		}
		tlsConf = &tls.Config{Certificates: []tls.Certificate{cert}}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, len(conns)+3)
	n := 0
	for _, conn := range conns {
		conn := conn
		n++
		go func() { errc <- srv.ServeUDP(ctx, conn) }()
	}

	if opts.tcp != "" {
		l, err := net.Listen("tcp", opts.tcp)
		if err != nil {
			return fmt.Errorf("-tcp: %w", err)
		}
		fmt.Printf("TCP listener on %s\n", l.Addr())
		n++
		go func() { errc <- srv.ServeTCP(ctx, l) }()
	}
	if opts.dot != "" {
		l, err := net.Listen("tcp", opts.dot)
		if err != nil {
			return fmt.Errorf("-tls: %w", err)
		}
		fmt.Printf("DoT listener on %s\n", l.Addr())
		n++
		go func() { errc <- srv.ServeDoT(ctx, l, tlsConf.Clone()) }()
	}
	if opts.doh != "" {
		l, err := net.Listen("tcp", opts.doh)
		if err != nil {
			return fmt.Errorf("-doh: %w", err)
		}
		fmt.Printf("DoH endpoint on https://%s%s\n", l.Addr(), transport.DoHPath)
		n++
		go func() { errc <- srv.ServeDoH(ctx, l, tlsConf.Clone()) }()
	}

	// First hard failure tears the rest down; a clean ctx cancellation
	// waits for every listener to finish draining.
	var firstErr error
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil && ctx.Err() == nil && firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	return firstErr
}

// frontDoorCert loads the -tls-cert/-tls-key pair, or mints an ephemeral
// self-signed certificate for loopback lab use when none was given.
func frontDoorCert(opts frontDoorOpts) (tls.Certificate, error) {
	if opts.certFile != "" || opts.keyFile != "" {
		if opts.certFile == "" || opts.keyFile == "" {
			return tls.Certificate{}, fmt.Errorf("-tls-cert and -tls-key must be given together")
		}
		cert, err := tls.LoadX509KeyPair(opts.certFile, opts.keyFile)
		if err != nil {
			return tls.Certificate{}, fmt.Errorf("loading TLS key pair: %w", err)
		}
		return cert, nil
	}
	fmt.Println("no -tls-cert/-tls-key given: using an ephemeral self-signed certificate (clients need -insecure / kdig +tls-no-check)")
	return transport.SelfSignedCert("localhost", "127.0.0.1", "::1")
}

// tracedHandler samples queries into per-resolution traces. Every Nth query
// (per -trace-sample) gets a live trace threaded through its context — the
// resolver and validator hang their span tree off it — and the finished
// trace lands in the ring served at /api/trace. With sampling off the
// handler is returned untouched, so the nil-span fast path stays in force.
func tracedHandler(h netsim.Handler, sampler *telemetry.Sampler, tlog *telemetry.TraceLog) netsim.Handler {
	if tlog == nil {
		return h
	}
	return netsim.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if len(q.Question) == 0 || !sampler.Sample() {
			return h.HandleDNS(ctx, q)
		}
		ctx, tr := telemetry.StartTrace(ctx, fmt.Sprintf("%s %s", q.Question[0].Name, q.Question[0].Type))
		resp, err := h.HandleDNS(ctx, q)
		tr.Root().End()
		tlog.Add(tr)
		return resp, err
	})
}

// step queries the candidate servers; a referral yields the next server
// set, anything else is final.
func step(ctx context.Context, tb *testbed.Testbed, servers []netip.Addr, q *dnswire.Message) (*dnswire.Message, []netip.Addr, bool) {
	for _, srv := range servers {
		resp, err := tb.Net.Query(ctx, srv, q)
		if err != nil {
			continue
		}
		if len(resp.Answer) == 0 && resp.RCode == dnswire.RCodeNoError {
			var next []netip.Addr
			for _, rr := range resp.Additional {
				switch d := rr.Data.(type) {
				case dnswire.A:
					next = append(next, d.Addr)
				case dnswire.AAAA:
					next = append(next, d.Addr)
				}
			}
			hasNS := false
			for _, rr := range resp.Authority {
				if rr.Type() == dnswire.TypeNS {
					hasNS = true
				}
			}
			if hasNS && len(next) > 0 {
				return nil, next, false
			}
		}
		return resp, nil, true
	}
	r := q.Reply()
	r.RCode = dnswire.RCodeServFail
	return r, nil, true
}
