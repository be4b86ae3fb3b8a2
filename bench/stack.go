package main

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/extended-dns-errors/edelab/internal/cluster"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// sockBuf is the buffer size asked for on every benchmark socket, client and
// server, so a paced burst is queued by the kernel instead of dropped.
const sockBuf = 4 << 20

// stack is one serving stack built in-process from the layers' public
// constructors, listening on real loopback sockets.
type stack struct {
	wild      *world
	resolvers []*resolver.Resolver
	frontends []*frontend.Frontend
	cluster   *cluster.Cluster // cluster_hot only
	reg       *telemetry.Registry
	network   string // "udp" or "tcp": what clients dial
	addr      string
	tracer    *tracer // nil in an untraced run

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// The cluster's members: two in-process replicas and one reached over UDP.
// ringSeed is the seed edeserver -cluster places its ring with.
const (
	remoteReplica = "r2"
	ringSeed      = 20230515
)

var localReplicas = []string{"r0", "r1"}

// newRing builds a router with cluster_hot's membership but nothing behind
// it, for asking which replica owns a name before the real stack exists.
func newRing() (*cluster.Cluster, error) {
	cl := cluster.New(cluster.Config{Seed: ringSeed})
	for _, id := range append(append([]string(nil), localReplicas...), remoteReplica) {
		if err := cl.AddRemote(id, "127.0.0.1:9"); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// world is one materialised population and what making it cost.
type world struct {
	*population.Wild
	generateS, materializeS float64 // population.generate_s, population.materialize_s
	rekeyed                 int     // worlds drawn and thrown away before this one
}

// newWorld generates and materialises a population.
//
// Materialize draws every signing key from crypto/rand, so two worlds of one
// seed hold different keys, and about one world in thirty holds a zone whose
// keys share a key tag. dnssec.CheckRRset tries only the first key a tag
// matches, so that zone's signatures fail ("crypto-failed", SERVFAIL with
// EDE 6) in that world and verify in its twin: answers would depend on the
// dice, not on the seed. Such a world is thrown away and drawn again.
func newWorld(seed uint64, domains int) (*world, error) {
	for rekeyed := 0; ; rekeyed++ {
		t := time.Now()
		pop := population.Generate(population.Config{TotalDomains: domains, Seed: seed})
		generateS := time.Since(t).Seconds()
		t = time.Now()
		wild, err := population.Materialize(pop)
		if err != nil {
			return nil, fmt.Errorf("materialize: %w", err)
		}
		materializeS := time.Since(t).Seconds()
		zone, err := keyTagClash(wild)
		if err != nil {
			return nil, err
		}
		if zone == "" {
			return &world{wild, generateS, materializeS, rekeyed}, nil
		}
		if rekeyed == 20 {
			return nil, fmt.Errorf("materialize: the keys of %s share a key tag, as did 20 worlds before", zone)
		}
	}
}

// keyTagClash returns the first zone of w in which two keys share a key tag
// (or a mismatching DS names a published key's tag), or "" when every zone's
// tags are distinct. The root's and the TLDs' keys are private to their
// servers, so their DNSKEY RRsets are asked for over the simulated network.
func keyTagClash(w *population.Wild) (dnswire.Name, error) {
	for _, d := range w.Pop.Domains {
		if d.Keys == nil {
			continue
		}
		tags := []uint16{d.Keys.KSK.KeyTag(), d.Keys.ZSK.KeyTag()}
		if d.Class == population.ClassDNSKEYMismatch {
			tags = append(tags, d.Keys.DS.KeyTag) // the retired key's tag must name no published key
		}
		if !distinct(tags) {
			return d.Name, nil
		}
	}
	ask := func(zone dnswire.Name, at netip.Addr) (bool, error) {
		resp, _, err := w.Net.Exchange(context.Background(), at, dnswire.NewQuery(1, zone, dnswire.TypeDNSKEY))
		if err != nil {
			return false, fmt.Errorf("DNSKEY %s: %w", zone, err)
		}
		var tags []uint16
		for _, rr := range resp.Answer {
			if k, ok := rr.Data.(dnswire.DNSKEY); ok {
				tags = append(tags, k.KeyTag())
			}
		}
		if len(tags) == 0 {
			return false, fmt.Errorf("DNSKEY %s: no key in the answer", zone)
		}
		return distinct(tags), nil
	}
	if ok, err := ask(dnswire.Root, w.Roots[0]); err != nil || !ok {
		return dnswire.Root, err
	}
	for _, t := range w.Pop.TLDs {
		if ok, err := ask(t.Name, t.Addr); err != nil || !ok {
			return t.Name, err
		}
	}
	return "", nil
}

func distinct(tags []uint16) bool {
	for i, a := range tags {
		for _, b := range tags[:i] {
			if a == b {
				return false
			}
		}
	}
	return true
}

// newUpstream builds one resolver over the wild network, behind the Upstream
// seam when tracing. Resolver and frontend both run on the wild's frozen
// clock, so cache state is a function of the query sequence alone.
func (s *stack) newUpstream() forwarder.Upstream {
	res := resolver.New(s.wild.Net, s.wild.Roots, s.wild.Anchor, resolver.ProfileCloudflare())
	res.Now = s.wild.Now
	s.resolvers = append(s.resolvers, res)
	var up forwarder.Upstream = forwarder.ResolverUpstream{R: res}
	if s.tracer != nil {
		up = tracedUpstream{t: s.tracer, next: up}
	}
	return up
}

func (s *stack) frontendConfig(p params) frontend.Config {
	return frontend.Config{Capacity: p.cacheSize, Now: s.wild.Now}
}

// serve starts a transport.Server for h (which must also be a WireServer)
// on a fresh loopback socket of the given network and returns its address.
func (s *stack) serve(ctx context.Context, network string, h netsim.Handler, reg *telemetry.Registry, wireSeam, handleSeam seam) (string, error) {
	wire := h.(transport.WireServer)
	if s.tracer != nil {
		h = tracedHandler{t: s.tracer, seam: handleSeam, next: h}
		wire = tracedWire{t: s.tracer, seam: wireSeam, next: wire}
	}
	srv := transport.NewServer(transport.Config{Handler: h, Wire: wire, Registry: reg})
	if network == "tcp" {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		s.wg.Add(1)
		go func() { defer s.wg.Done(); _ = srv.ServeTCP(ctx, l) }() // ends with ctx; the error is the cancellation
		return l.Addr().String(), nil
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return "", err
	}
	setSockBuf(conn)
	s.wg.Add(1)
	go func() { defer s.wg.Done(); _ = srv.ServeUDP(ctx, conn) }()
	return conn.LocalAddr().String(), nil
}

// setSockBuf asks for sockBuf both ways; the kernel may cap it, which is
// fine — the request is the same on every commit.
func setSockBuf(c interface {
	SetReadBuffer(int) error
	SetWriteBuffer(int) error
}) {
	_ = c.SetReadBuffer(sockBuf)
	_ = c.SetWriteBuffer(sockBuf)
}

// newStack builds the serving stack for w over a fresh wild network.
func newStack(p params, w workload, wild *world) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &stack{wild: wild, reg: telemetry.NewRegistry(), network: "udp", cancel: cancel}
	if p.trace {
		s.tracer = newTracer()
		if n := wrapEndpoints(s.tracer, wild.Net); n < len(wild.Pop.TLDs)+1 {
			cancel()
			return nil, fmt.Errorf("endpoint seam wrapped %d endpoints, want at least %d", n, len(wild.Pop.TLDs)+1)
		}
	}
	var err error
	switch w.front {
	case "udp", "tcp":
		s.network = w.front
		fe := frontend.New(s.newUpstream(), s.frontendConfig(p))
		s.frontends = append(s.frontends, fe)
		s.addr, err = s.serve(ctx, w.front, fe, s.reg, seamWire, seamHandle)
	case "cluster":
		// Two local replicas behind the router and one remote replica with
		// its own front door on a second loopback port, as `edeserver
		// -cluster 2` plus one `-join` would run; HotThreshold stays at
		// edeserver's default (0).
		remote := frontend.New(s.newUpstream(), s.frontendConfig(p))
		var raddr string
		if raddr, err = s.serve(ctx, "udp", remote, telemetry.NewRegistry(), seamReplicaWire, seamReplicaHandle); err != nil {
			break
		}
		s.cluster = cluster.New(cluster.Config{Seed: ringSeed, Frontend: s.frontendConfig(p)})
		for _, id := range localReplicas {
			var rep *cluster.Replica
			if rep, err = s.cluster.AddLocal(id, s.newUpstream()); err != nil {
				break
			}
			s.frontends = append(s.frontends, rep.Frontend())
		}
		if err == nil {
			err = s.cluster.AddRemote(remoteReplica, raddr)
		}
		if err != nil {
			break
		}
		s.frontends = append(s.frontends, remote)
		s.cluster.RegisterMetrics(s.reg)
		s.addr, err = s.serve(ctx, "udp", s.cluster, s.reg, seamWire, seamHandle)
	default:
		err = fmt.Errorf("workload %s has no serving stack", w.name)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops every listener and waits for the serve loops to drain.
func (s *stack) close() {
	s.cancel()
	s.wg.Wait()
}
