// Command edeserver serves a validating recursive resolver (-profile;
// Cloudflare by default) over the paper's testbed zones through a real
// multi-transport front door: one UDP door always, plus whichever of TCP,
// DoT and DoH -listen names. Point any EDE-aware client (cmd/ededig, dig
// +ednsopt, kdig +tls, curl --doh-url) at it to see the misconfigured zones'
// Extended DNS Errors on the wire:
//
//	edeserver -listen udp://127.0.0.1:5353,tcp://127.0.0.1:5353,tls://127.0.0.1:8853,https://127.0.0.1:8443 &
//	ededig -server 127.0.0.1:5353 rrsig-exp-all.extended-dns-errors.com
//	ededig -server tcp://127.0.0.1:5353 rrsig-exp-all.extended-dns-errors.com
//	ededig -server tls://127.0.0.1:8853 -insecure rrsig-exp-all.extended-dns-errors.com
//	ededig -server https://127.0.0.1:8443/dns-query -insecure valid.extended-dns-errors.com
//
// Without -tls-cert/-tls-key an ephemeral self-signed certificate is
// generated for the TLS listeners, so clients need -insecure (or kdig's
// equivalent). Every transport funnels into the same handler: the EDE
// codes and EXTRA-TEXT a client sees are identical over all of them.
//
// The resolver sits behind the caching serving layer (internal/frontend):
// sharded message cache, query coalescing, RFC 8767 serve-stale (EDE 3/19),
// an error cache (EDE 13), and overload shedding. The zones themselves, as
// each authority serves them, are what edetestbed -zones prints and
// ededig -trace walks.
//
// With -admin an HTTP admin plane comes up alongside the DNS socket:
//
//	edeserver -listen 127.0.0.1:5353 -admin 127.0.0.1:9970 -trace-sample 1 &
//	curl -s 127.0.0.1:9970/metrics # Prometheus text exposition
//	curl -s 127.0.0.1:9970/healthz
//	curl -s '127.0.0.1:9970/api/trace?name=rrsig-exp-all'
//
// -trace-sample N records every Nth query's full resolution trace — the
// delegation walk, cache decisions, per-server transport attempts, DNSSEC
// verdicts, and where each EDE attached — into a bounded ring readable at
// /api/trace. /debug/pprof/* is also served.
//
// The serving counters (hits, misses, stale serves, coalesced waits, per-EDE
// emissions, ...) are on the admin plane's /metrics. A flag that cannot take
// effect as written (-trace-sample without -admin, -tls-cert without a TLS
// listener, ...) exits 2 before anything is built.
package main

import (
	"context"
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// traceRing is the capacity of the sampled-trace ring /api/trace reads.
const traceRing = 256

// run is main with its inputs and outputs as parameters: it serves until ctx
// is cancelled (SIGINT/SIGTERM in main) and returns the exit status, 2 for a
// command line that cannot be honoured as written.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edeserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "udp://127.0.0.1:5353", "comma-separated doors to serve: exactly one udp://host:port[?reuseport=N] (N SO_REUSEPORT sockets, one read loop each; linux only for N>1) and at most one each of tcp://, tls:// (DoT) and https:// (DoH at "+transport.DoHPath+"); a bare host:port is udp")
	profileName := fs.String("profile", "cloudflare", "vendor profile of the resolver (cloudflare, bind, unbound, powerdns, knot, quad9, opendns)")
	admin := fs.String("admin", "", "HTTP admin plane address, e.g. 127.0.0.1:9970 (/metrics, /healthz, /api/trace, /debug/pprof)")
	traceSample := fs.Uint64("trace-sample", 0, "record every Nth query's resolution trace into the /api/trace ring (0 = off; needs -admin)")
	cacheSize := fs.Int("cache-size", 1<<16, "frontend cache capacity in entries: the bound on every client answer the server holds (the resolver behind the frontend stores none)")
	chaos := fs.String("chaos", "", "inject faults into the simulated testbed network, e.g. 'loss=0.2,lat=100ms' (see internal/netsim.ParseFaultProfile)")
	chaosSeed := fs.Uint64("chaos-seed", 20230515, "seed for the fault plan; replays deterministically")
	retries := fs.Int("retries", 0, "resolver attempts per authoritative server (0 = single-shot)")
	retryBudget := fs.Int("retry-budget", 0, "total upstream queries per resolution step (0 = unlimited)")
	tlsCert := fs.String("tls-cert", "", "PEM certificate chain for the tls:// and https:// doors (requires -tls-key; omitted = ephemeral self-signed)")
	tlsKey := fs.String("tls-key", "", "PEM private key for the tls:// and https:// doors")
	noWireCache := fs.Bool("no-wire-cache", false, "disable the pre-packed wire response cache (every query builds its response from scratch)")
	tcpKeepalive := fs.Duration("tcp-keepalive", 0, "idle timeout, advertised and enforced: the RFC 7828 edns-tcp-keepalive TIMEOUT on TCP/DoT responses, and when an idle TCP, DoT or DoH connection closes (0 = not advertised; idle connections close after 30s)")
	clusterN := fs.Int("cluster", 0, "run N frontend replicas behind a consistent-hash query router (mounts /api/cluster/ on -admin for -join peers)")
	joinURL := fs.String("join", "", "join an existing cluster as a secondary replica, e.g. http://127.0.0.1:9970 (the primary's -admin base URL)")
	replicaID := fs.String("replica-id", "", "replica identity announced to the cluster with -join (default: derived from the DNS listen address)")
	advertise := fs.String("advertise", "", "udp:// endpoint the primary should forward this replica's ring range to with -join (default: the bound udp:// door)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	exit := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "edeserver: "+format+"\n", a...)
		return code
	}

	prof, ok := resolver.ProfileByName(*profileName)
	var fp netsim.FaultProfile
	var chaosErr, advErr error
	if *chaos != "" {
		fp, chaosErr = netsim.ParseFaultProfile(*chaos)
	}
	udp, streams, listenErr := parseListen(*listen)
	var adv transport.Endpoint
	if *advertise != "" {
		adv, advErr = transport.ParseEndpoint(*advertise)
	}
	switch {
	case fs.NArg() > 0:
		return exit(2, "unexpected argument %q", fs.Arg(0))
	case !ok:
		return exit(2, "unknown profile %q", *profileName)
	case chaosErr != nil:
		return exit(2, "-chaos: %v", chaosErr)
	case listenErr != nil:
		return exit(2, "-listen: %v", listenErr)
	case advErr != nil:
		return exit(2, "-advertise: %v", advErr)
	case *advertise != "" && (adv.Scheme != "udp" || adv.ReusePort != 0):
		return exit(2, "-advertise: the primary forwards to one udp://host:port, not %s", adv)
	case *clusterN > 0 && *joinURL != "":
		return exit(2, "-cluster (primary) and -join (secondary) are mutually exclusive")
	case (*tlsCert != "" || *tlsKey != "") && !servesTLS(streams):
		return exit(2, "-tls-cert/-tls-key need a tls:// or https:// door in -listen to serve them")
	case (*tlsCert == "") != (*tlsKey == ""):
		return exit(2, "-tls-cert and -tls-key must be given together")
	case *traceSample > 0 && *admin == "":
		return exit(2, "-trace-sample needs -admin: sampled traces are read back at /api/trace")
	case (*replicaID != "" || *advertise != "") && *joinURL == "":
		return exit(2, "-replica-id and -advertise describe a -join secondary")
	}

	tb, err := testbed.Build()
	if err != nil {
		return exit(1, "%v", err)
	}
	if *chaos != "" {
		fmt.Fprintf(stdout, "injecting faults: %s (seed %d)\n", fp, *chaosSeed)
		tb.Net.SetFaults(netsim.NewFaultPlan(*chaosSeed, fp))
	}

	conns, err := transport.ListenUDPReusePort(ctx, udp.Addr, udp.ReusePort)
	if err != nil {
		return exit(1, "%v", err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if len(conns) > 1 {
		fmt.Fprintf(stdout, "SO_REUSEPORT: %d UDP sockets on %s\n", len(conns), conns[0].LocalAddr())
	}
	fmt.Fprintf(stdout, "serving the extended-dns-errors.com testbed on %s\n", conns[0].LocalAddr())
	fmt.Fprintf(stdout, "zones: root, com, %s and %d test subdomains\n", testbed.ParentZone, len(tb.Cases))

	s := &edeserver{
		tb: tb, conns: conns, prof: prof,
		fcfg: frontend.Config{Capacity: *cacheSize},
		reg:  telemetry.NewRegistry(), sampler: telemetry.NewSampler(*traceSample),
		admin: *admin, streams: streams, certFile: *tlsCert, keyFile: *tlsKey,
		disableWire: *noWireCache, tcpKeepalive: *tcpKeepalive,
		stdout: stdout, stderr: stderr,
	}
	tb.Net.RegisterMetrics(s.reg)
	if *traceSample > 0 {
		s.tlog = telemetry.NewTraceLog(traceRing)
	}
	if *retries > 0 || *retryBudget > 0 {
		s.tcfg = &resolver.TransportConfig{Retries: *retries, RetryBudget: *retryBudget, Backoff: 50 * time.Millisecond}
	}
	switch {
	case *clusterN > 0:
		err = s.servePrimary(ctx, *clusterN)
	case *joinURL != "":
		err = s.serveSecondary(ctx, *joinURL, *replicaID, adv.Addr)
	default:
		err = s.serveResolver(ctx)
	}
	if err != nil {
		return exit(1, "%v", err)
	}
	return 0
}

// parseListen splits -listen into its one udp door and the stream doors, at
// most one of each scheme.
func parseListen(list string) (udp transport.Endpoint, streams []transport.Endpoint, err error) {
	seen := map[string]bool{}
	for _, s := range strings.Split(list, ",") {
		ep, err := transport.ParseEndpoint(strings.TrimSpace(s))
		switch {
		case err != nil:
			return udp, nil, err
		case seen[ep.Scheme]:
			return udp, nil, fmt.Errorf("two %s:// doors; each scheme is served once", ep.Scheme)
		case ep.Scheme == "udp":
			udp = ep
		default:
			streams = append(streams, ep)
		}
		seen[ep.Scheme] = true
	}
	if !seen["udp"] {
		return udp, nil, errors.New("no udp:// door; the UDP door is always served")
	}
	return udp, streams, nil
}

// servesTLS reports whether a stream door needs the certificate.
func servesTLS(streams []transport.Endpoint) bool {
	return slices.ContainsFunc(streams, func(ep transport.Endpoint) bool { return ep.Scheme != "tcp" })
}

// edeserver is what every serving mode shares once the command line is
// parsed: the testbed and its sockets, the resolver and frontend settings,
// the admin plane, and the front door's listener flags.
type edeserver struct {
	tb      *testbed.Testbed
	conns   []net.PacketConn
	prof    *resolver.Profile
	tcfg    *resolver.TransportConfig // nil: single-shot
	fcfg    frontend.Config
	reg     *telemetry.Registry
	sampler *telemetry.Sampler
	tlog    *telemetry.TraceLog // nil: tracing off
	admin   string

	streams           []transport.Endpoint // the tcp://, tls:// and https:// doors
	certFile, keyFile string
	disableWire       bool
	tcpKeepalive      time.Duration

	stdout, stderr io.Writer
}

// newResolver builds a resolver over the testbed with the -profile and the
// -retries/-retry-budget transport policy.
func (s *edeserver) newResolver() *resolver.Resolver {
	res := s.tb.NewResolver(s.prof)
	if s.tcfg != nil {
		res.Transport = s.tcfg
	}
	return res
}

// startAdmin brings the -admin HTTP plane up, with mounts beside the
// standard endpoints; without -admin it does nothing.
func (s *edeserver) startAdmin(ctx context.Context, mounts ...telemetry.Mount) error {
	if s.admin == "" {
		return nil
	}
	h := telemetry.AdminHandler(s.reg, s.tlog, func() map[string]any {
		return map[string]any{"dns_addr": s.conns[0].LocalAddr().String()}
	}, mounts...)
	adminAddr, err := telemetry.ServeAdmin(ctx, s.admin, h)
	if err != nil {
		return fmt.Errorf("-admin: %w", err)
	}
	fmt.Fprintf(s.stdout, "admin plane on http://%s (/metrics /healthz /api/trace /debug/pprof)\n", adminAddr)
	return nil
}

// serveResolver serves one resolver through the caching frontend.
func (s *edeserver) serveResolver(ctx context.Context) error {
	if err := s.startAdmin(ctx); err != nil {
		return err
	}
	res := s.newResolver()
	res.RegisterMetrics(s.reg)
	fe := frontend.New(forwarder.ResolverUpstream{R: res}, s.fcfg)
	fe.RegisterMetrics(s.reg)
	return s.serve(ctx, fe, fe)
}

// serve runs the transport front door until ctx is cancelled (SIGINT/SIGTERM)
// — at which point every listener drains its in-flight queries — or a
// listener fails: one ServeUDP read loop per UDP socket (several under
// reuseport), plus a listener per stream door -listen names, all
// funnelled into front. The wire fast path is handed over explicitly:
// tracing may wrap front in a plain HandlerFunc, hiding its WireServer from
// NewServer's auto-detect. Wire hits bypass tracing: they never start a
// resolution, so there is no trace.
func (s *edeserver) serve(ctx context.Context, front netsim.Handler, wire transport.WireServer) error {
	srv := transport.NewServer(transport.Config{
		Handler:      tracedHandler(front, s.sampler, s.tlog),
		Wire:         wire,
		DisableWire:  s.disableWire,
		TCPKeepalive: s.tcpKeepalive,
		Registry:     s.reg,
	})

	var tlsConf *tls.Config
	if servesTLS(s.streams) {
		cert, err := s.cert()
		if err != nil {
			return err
		}
		tlsConf = &tls.Config{Certificates: []tls.Certificate{cert}}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, len(s.conns)+len(s.streams)) // one per serving goroutine
	for _, conn := range s.conns {
		go func() { errc <- srv.ServeUDP(ctx, conn) }()
	}
	for _, ep := range s.streams {
		l, err := net.Listen("tcp", ep.Addr)
		if err != nil {
			return fmt.Errorf("-listen %s: %w", ep, err)
		}
		var serve func() error
		switch ep.Scheme {
		case "tcp":
			fmt.Fprintf(s.stdout, "TCP listener on %s\n", l.Addr())
			serve = func() error { return srv.ServeTCP(ctx, l) }
		case "tls":
			fmt.Fprintf(s.stdout, "DoT listener on %s\n", l.Addr())
			serve = func() error { return srv.ServeDoT(ctx, l, tlsConf.Clone()) }
		case "https":
			fmt.Fprintf(s.stdout, "DoH endpoint on https://%s%s\n", l.Addr(), transport.DoHPath)
			serve = func() error { return srv.ServeDoH(ctx, l, tlsConf.Clone()) }
		}
		go func() { errc <- serve() }()
	}

	// First hard failure tears the rest down; a clean ctx cancellation
	// waits for every listener to finish draining.
	var firstErr error
	for range cap(errc) {
		if err := <-errc; err != nil && ctx.Err() == nil && firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	return firstErr
}

// cert loads the -tls-cert/-tls-key pair, or mints an ephemeral self-signed
// certificate for loopback lab use when none was given.
func (s *edeserver) cert() (tls.Certificate, error) {
	if s.certFile != "" {
		cert, err := tls.LoadX509KeyPair(s.certFile, s.keyFile)
		if err != nil {
			return tls.Certificate{}, fmt.Errorf("loading TLS key pair: %w", err)
		}
		return cert, nil
	}
	fmt.Fprintln(s.stdout, "no -tls-cert/-tls-key given: using an ephemeral self-signed certificate (clients need -insecure / kdig +tls-no-check)")
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
