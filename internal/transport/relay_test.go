package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// Answers name their origin: the stub peer answers with relayedAddr, the
// router's own Handler (the parsed path) with parsedAddr.
var (
	relayedAddr = mustAddr("192.0.2.2")
	parsedAddr  = mustAddr("192.0.2.1")
)

func answerWith(a netip.Addr) netsim.Handler {
	return netsim.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.RecursionAvailable = true
		r.Answer = []dnswire.RR{{Name: q.Question[0].Name, TTL: 60, Class: dnswire.ClassIN, Data: dnswire.A{Addr: a}}}
		return r, nil
	})
}

// stubPeerToken is the RelayPeer the stub router hands out; it keeps the
// books a cluster node would.
type stubPeerToken struct {
	addr                        netip.AddrPort
	inflight                    atomic.Int64
	answered, failed, abandoned atomic.Int64
}

func (p *stubPeerToken) Addr() netip.AddrPort { return p.addr }

func (p *stubPeerToken) Done(o RelayOutcome) {
	p.inflight.Add(-1)
	switch o {
	case RelayAnswered:
		p.answered.Add(1)
	case RelayFailed:
		p.failed.Add(1)
	case RelayAbandoned:
		p.abandoned.Add(1)
	}
}

// stubRouter declines every ServeWire and routes every RouteWire to one
// peer.
type stubRouter struct {
	peer    *stubPeerToken
	timeout time.Duration
	gate    func() // runs inside ServeWire, i.e. on the read loop
}

func (r *stubRouter) ServeWire(dnswire.WireQuery, int, []byte) ([]byte, bool) {
	if r.gate != nil {
		r.gate()
	}
	return nil, false
}

func (r *stubRouter) RouteWire(dnswire.WireQuery) (RelayPeer, bool) {
	r.peer.inflight.Add(1)
	return r.peer, true
}

func (r *stubRouter) RelayTimeout() time.Duration { return r.timeout }

// forwarded is one datagram the stub peer received.
type forwarded struct {
	data []byte
	from netip.AddrPort
}

// stubPeer is a UDP socket standing in for a remote replica's front door:
// it hands every datagram it receives to the test.
type stubPeer struct {
	conn *net.UDPConn
	got  chan forwarded
}

func startStubPeer(t *testing.T) *stubPeer {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	// Sized so no test's sends can block the peer's reader.
	p := &stubPeer{conn: conn, got: make(chan forwarded, 1024)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, maxUDPPayload)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			p.got <- forwarded{data: append([]byte(nil), buf[:n]...), from: from}
		}
	}()
	t.Cleanup(func() { conn.Close(); <-done })
	return p
}

func (p *stubPeer) addr() netip.AddrPort { return p.conn.LocalAddr().(*net.UDPAddr).AddrPort() }

func (p *stubPeer) next(t *testing.T) forwarded {
	t.Helper()
	select {
	case f := <-p.got:
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("the peer received no forwarded datagram")
		return forwarded{}
	}
}

// answer builds the peer's reply to a forwarded datagram, forward ID kept.
func answer(t *testing.T, f forwarded) []byte {
	t.Helper()
	q, err := dnswire.Unpack(f.data)
	if err != nil {
		t.Fatalf("forwarded datagram does not parse: %v", err)
	}
	r, _ := answerWith(relayedAddr).HandleDNS(context.Background(), q)
	wire, err := r.Pack()
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	return wire
}

func (p *stubPeer) reply(t *testing.T, f forwarded, wire []byte) {
	t.Helper()
	if _, err := p.conn.WriteToUDPAddrPort(wire, f.from); err != nil {
		t.Fatalf("peer write: %v", err)
	}
}

// startRelayDoor serves a router with the relay on loopback UDP. stop
// cancels the listener and fails the test if ServeUDP does not return.
func startRelayDoor(t *testing.T, router *stubRouter, cfg Config) (srv *Server, addr string, stop func()) {
	t.Helper()
	cfg.Handler = answerWith(parsedAddr)
	cfg.Wire = router
	srv = NewServer(cfg)
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { srv.ServeUDP(ctx, conn); close(done) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("ServeUDP did not return after cancel")
			}
		})
	}
	t.Cleanup(stop)
	return srv, conn.LocalAddr().String(), stop
}

func dialUDP(t *testing.T, addr string) *net.UDPConn {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn.(*net.UDPConn)
}

func mustPack(t *testing.T, m *dnswire.Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	return b
}

func readAnswer(t *testing.T, c *net.UDPConn, wait time.Duration) ([]byte, bool) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(wait))
	buf := make([]byte, maxUDPPayload)
	n, err := c.Read(buf)
	if err != nil {
		return nil, false
	}
	return buf[:n], true
}

// answeredBy unpacks a response and returns the address in its A record.
func answeredBy(t *testing.T, wire []byte) netip.Addr {
	t.Helper()
	m, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatalf("response does not parse: %v", err)
	}
	if len(m.Answer) != 1 {
		t.Fatalf("response has %d answers, want 1", len(m.Answer))
	}
	return m.Answer[0].Data.(dnswire.A).Addr
}

func withoutID(b []byte) []byte { return b[2:] }

// TestRelayRoundTrip: the peer gets the client's datagram verbatim but for
// the ID, the client gets the peer's answer verbatim but for the ID, and no
// query reaches the Handler.
func TestRelayRoundTrip(t *testing.T) {
	peer := startStubPeer(t)
	tok := &stubPeerToken{addr: peer.addr()}
	reg := telemetry.NewRegistry()
	srv, addr, _ := startRelayDoor(t, &stubRouter{peer: tok, timeout: 2 * time.Second}, Config{Registry: reg})
	client := dialUDP(t, addr)

	plain := dnswire.NewQuery(0xBEEF, dnswire.MustName("plain.example."), dnswire.TypeAAAA)
	plain.OPT = nil
	for i, q := range []*dnswire.Message{
		dnswire.NewQuery(0x1234, dnswire.MustName("relay.example."), dnswire.TypeA),
		plain,
	} {
		query := mustPack(t, q)
		if _, err := client.Write(query); err != nil {
			t.Fatalf("write: %v", err)
		}
		f := peer.next(t)
		if !bytes.Equal(withoutID(f.data), withoutID(query)) {
			t.Fatalf("query %d: peer got %x, want the client's datagram %x but for the ID", i, f.data, query)
		}
		wire := answer(t, f)
		peer.reply(t, f, wire)
		got, ok := readAnswer(t, client, 3*time.Second)
		if !ok {
			t.Fatalf("query %d: no answer relayed to the client", i)
		}
		if binary.BigEndian.Uint16(got) != q.ID {
			t.Fatalf("query %d: answer ID %#x, want the client's %#x", i, binary.BigEndian.Uint16(got), q.ID)
		}
		if !bytes.Equal(withoutID(got), withoutID(wire)) {
			t.Fatalf("query %d: client got %x, want the peer's answer %x but for the ID", i, got, wire)
		}
	}
	// The peer's reader calls Done only after its flush has sent the answer
	// on, so the client can hold the second answer before the second Done.
	for deadline := time.Now().Add(5 * time.Second); tok.answered.Load() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := tok.answered.Load(); got != 2 {
		t.Errorf("Done(RelayAnswered) %d times, want 2", got)
	}
	if got := tok.inflight.Load(); got != 0 {
		t.Errorf("inflight %d after both answers, want 0", got)
	}
	m := srv.m
	if m.relayed.Load() != 2 || m.queries[TransportUDP].Load() != 2 || m.wireServes[TransportUDP].Load() != 0 {
		t.Errorf("relayed=%d queries=%d wire_serves=%d, want 2, 2, 0",
			m.relayed.Load(), m.queries[TransportUDP].Load(), m.wireServes[TransportUDP].Load())
	}
	rounds, _ := reg.Value("edelab_frontdoor_relay_rounds_total")
	datagrams, _ := reg.Value("edelab_frontdoor_relay_datagrams_total")
	if datagrams != 2 || rounds == 0 {
		t.Errorf("relay rounds=%v datagrams=%v, want >0 and 2", rounds, datagrams)
	}
}

// TestRelayExpiryRedispatch: a peer that stays silent costs the client no
// answer — the sweeper expires the query without any further traffic, the
// router hears of the failure, and the Handler answers. The peer's late
// answer, whose ID is free again, reaches nobody.
func TestRelayExpiryRedispatch(t *testing.T) {
	peer := startStubPeer(t)
	tok := &stubPeerToken{addr: peer.addr()}
	srv, addr, _ := startRelayDoor(t, &stubRouter{peer: tok, timeout: 100 * time.Millisecond}, Config{})
	client := dialUDP(t, addr)

	if _, err := client.Write(mustPack(t, dnswire.NewQuery(7, dnswire.MustName("silent.example."), dnswire.TypeA))); err != nil {
		t.Fatalf("write: %v", err)
	}
	f := peer.next(t)
	got, ok := readAnswer(t, client, 5*time.Second)
	if !ok {
		t.Fatal("no answer after the relay timeout: the query was not re-dispatched")
	}
	if by := answeredBy(t, got); by != parsedAddr {
		t.Fatalf("answered by %v, want the Handler (%v)", by, parsedAddr)
	}
	if binary.BigEndian.Uint16(got) != 7 {
		t.Fatalf("re-dispatched answer ID %#x, want 7", binary.BigEndian.Uint16(got))
	}
	if tok.failed.Load() != 1 || tok.inflight.Load() != 0 {
		t.Errorf("failed=%d inflight=%d, want 1 and 0", tok.failed.Load(), tok.inflight.Load())
	}
	if got := srv.m.relayFailures[relayExpired].Load(); got != 1 {
		t.Errorf("relay_failures{expired} = %d, want 1", got)
	}
	if got := srv.m.queries[TransportUDP].Load(); got != 1 {
		t.Errorf("queries = %d, want 1: a re-dispatched query is not a second query", got)
	}

	peer.reply(t, f, answer(t, f))
	if late, ok := readAnswer(t, client, 300*time.Millisecond); ok {
		t.Fatalf("the peer's late answer reached the client: %x", late)
	}
	if got := srv.m.relayFailures[relayUnmatched].Load(); got != 1 {
		t.Errorf("relay_failures{unmatched} = %d, want 1", got)
	}
}

// TestRelayPeerKilled: 64 queries are outstanding when the peer's socket
// closes. All 64 are answered by the Handler, and so is the next one, whose
// forward bounces off the closed port.
func TestRelayPeerKilled(t *testing.T) {
	peer := startStubPeer(t)
	tok := &stubPeerToken{addr: peer.addr()}
	srv, addr, _ := startRelayDoor(t, &stubRouter{peer: tok, timeout: 150 * time.Millisecond}, Config{})
	client := dialUDP(t, addr)

	const n = 64
	for i := 0; i < n; i++ {
		if _, err := client.Write(mustPack(t, dnswire.NewQuery(uint16(i), dnswire.MustName("killed.example."), dnswire.TypeA))); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		peer.next(t)
	}
	peer.conn.Close()

	seen := make(map[uint16]bool)
	for len(seen) < n {
		got, ok := readAnswer(t, client, 5*time.Second)
		if !ok {
			t.Fatalf("%d of %d outstanding queries answered after the peer died", len(seen), n)
		}
		if by := answeredBy(t, got); by != parsedAddr {
			t.Fatalf("answered by %v, want the Handler", by)
		}
		seen[binary.BigEndian.Uint16(got)] = true
	}
	if tok.failed.Load() != n || tok.inflight.Load() != 0 {
		t.Errorf("failed=%d inflight=%d, want %d and 0", tok.failed.Load(), tok.inflight.Load(), n)
	}

	if runtime.GOOS != "linux" {
		return // ICMP errors on connected UDP sockets are the kernel's to deliver
	}
	if _, err := client.Write(mustPack(t, dnswire.NewQuery(999, dnswire.MustName("killed.example."), dnswire.TypeA))); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, ok := readAnswer(t, client, 5*time.Second)
	if !ok || answeredBy(t, got) != parsedAddr {
		t.Fatal("query forwarded to the closed port was not answered by the Handler")
	}
	if srv.m.relayFailures[relayPeerError].Load() == 0 {
		t.Error("ECONNREFUSED on the peer socket not counted as relay_failures{peer_error}")
	}
}

// TestRelayDeclines: what the relay does not take is answered by the
// Handler exactly as without a router — a query with an EDNS option, one
// over 512 bytes, a query whose table slot still waits, and everything on a
// listener that is not a real UDP socket.
func TestRelayDeclines(t *testing.T) {
	peer := startStubPeer(t)
	tok := &stubPeerToken{addr: peer.addr()}
	router := &stubRouter{peer: tok, timeout: 10 * time.Second}

	t.Run("options and size", func(t *testing.T) {
		srv, addr, _ := startRelayDoor(t, router, Config{})
		client := dialUDP(t, addr)
		cookie := dnswire.NewQuery(1, dnswire.MustName("cookie.example."), dnswire.TypeA)
		cookie.OPT.Options = []dnswire.Option{dnswire.RawOption{OptCode: 10, Data: make([]byte, 8)}}
		padded := dnswire.NewQuery(2, dnswire.MustName("padded.example."), dnswire.TypeA)
		padded.OPT.Options = []dnswire.Option{dnswire.RawOption{OptCode: 12, Data: make([]byte, 600)}}
		for _, q := range []*dnswire.Message{cookie, padded} {
			if _, err := client.Write(mustPack(t, q)); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, ok := readAnswer(t, client, 3*time.Second)
			if !ok || answeredBy(t, got) != parsedAddr || binary.BigEndian.Uint16(got) != q.ID {
				t.Fatalf("query %d not answered by the Handler", q.ID)
			}
		}
		if srv.m.relayed.Load() != 0 || tok.inflight.Load() != 0 {
			t.Errorf("relayed=%d inflight=%d, want 0 and 0", srv.m.relayed.Load(), tok.inflight.Load())
		}
	})

	t.Run("slot still pending", func(t *testing.T) {
		// A full table and a silent peer: the forward after maxUDPInflight
		// lands on the slot of the first.
		srv, addr, _ := startRelayDoor(t, router, Config{})
		client := dialUDP(t, addr)
		before := tok.abandoned.Load()
		fill(t, client, "full.example.", maxUDPInflight, srv.m.relayed.Load)
		if _, err := client.Write(mustPack(t, dnswire.NewQuery(1000, dnswire.MustName("full.example."), dnswire.TypeA))); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, ok := readAnswer(t, client, 3*time.Second)
		if !ok || answeredBy(t, got) != parsedAddr || binary.BigEndian.Uint16(got) != 1000 {
			t.Fatal("the query that found its slot pending was not answered by the Handler")
		}
		if srv.m.relayed.Load() != maxUDPInflight || tok.abandoned.Load() != before+1 {
			t.Errorf("relayed=%d abandoned=+%d, want %d and +1", srv.m.relayed.Load(), tok.abandoned.Load()-before, maxUDPInflight)
		}
	})

	t.Run("not a UDP socket", func(t *testing.T) {
		srv := NewServer(Config{Handler: answerWith(parsedAddr), Wire: router})
		inner, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { srv.ServeUDP(ctx, struct{ net.PacketConn }{inner}); close(done) }()
		defer func() { cancel(); <-done }()
		client := dialUDP(t, inner.LocalAddr().String())
		if _, err := client.Write(mustPack(t, dnswire.NewQuery(3, dnswire.MustName("wrapped.example."), dnswire.TypeA))); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, ok := readAnswer(t, client, 3*time.Second)
		if !ok || answeredBy(t, got) != parsedAddr {
			t.Fatal("query on a wrapped listener not answered by the Handler")
		}
		if srv.m.relayed.Load() != 0 {
			t.Errorf("relayed=%d on a listener that is not a *net.UDPConn", srv.m.relayed.Load())
		}
	})
}

// TestRelayStopAbandons: stopping the listener with a query pending returns
// promptly and releases the router's in-flight count without blaming the
// peer.
func TestRelayStopAbandons(t *testing.T) {
	peer := startStubPeer(t)
	tok := &stubPeerToken{addr: peer.addr()}
	_, addr, stop := startRelayDoor(t, &stubRouter{peer: tok, timeout: 10 * time.Second}, Config{})
	client := dialUDP(t, addr)
	if _, err := client.Write(mustPack(t, dnswire.NewQuery(1, dnswire.MustName("pending.example."), dnswire.TypeA))); err != nil {
		t.Fatalf("write: %v", err)
	}
	peer.next(t)
	stop()
	if tok.abandoned.Load() != 1 || tok.failed.Load() != 0 || tok.inflight.Load() != 0 {
		t.Errorf("abandoned=%d failed=%d inflight=%d, want 1, 0, 0", tok.abandoned.Load(), tok.failed.Load(), tok.inflight.Load())
	}
}

// batchedUDP reports whether this platform moves several datagrams per
// syscall (udp_linux.go).
var batchedUDP = runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64")

// TestRelayBatching: 1,008 queries arriving in bursts of 16 are all relayed
// and answered, and share their syscalls in all three directions. The
// forward socket is flushed at most once per listener receive round, and the
// client side once per peer receive round, so both ratios are read off the
// round counters. The listener's is exact — the gate below allows a burst two
// rounds — and is checked on every run; how many wake-ups the relay's reader
// takes to drain the peer's one batched send is the scheduler's choice, so
// that bound is checked only under BENCH_GATES=1, on a quiet machine.
func TestRelayBatching(t *testing.T) {
	if !batchedUDP {
		t.Skip("one datagram per syscall on this platform")
	}
	const burst, bursts = 16, 63

	// The peer answers a burst with one batched send once it has all of it.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		in, out, err := newPeerIO(conn, burst)
		if err != nil {
			t.Errorf("peer io: %v", err)
			return
		}
		var held [burst][]byte
		var froms [burst]udpAddr
		k := 0
		for {
			n, err := in.recv()
			if err != nil {
				return
			}
			for i := 0; i < n; i++ {
				held[k] = append(held[k][:0], in.in(i)...)
				held[k][2] |= 0x80 // QR: the query becomes its own answer
				in.saveAddr(i, &froms[k])
				k++
			}
			if k == burst {
				for i := 0; i < k; i++ {
					out.queueTo(&froms[i], held[i])
				}
				if err := out.flush(); err != nil {
					t.Errorf("peer flush: %v", err)
				}
				k = 0
			}
		}
	}()
	defer func() { conn.Close(); <-peerDone }()

	// The gate holds the read loop on a burst's first datagram until the
	// client has sent the whole burst: at most two receive rounds each.
	var armed atomic.Bool
	sent := make(chan struct{})
	tok := &stubPeerToken{addr: conn.LocalAddr().(*net.UDPAddr).AddrPort()}
	router := &stubRouter{peer: tok, timeout: 5 * time.Second, gate: func() {
		if armed.CompareAndSwap(true, false) {
			<-sent
		}
	}}
	srv, addr, _ := startRelayDoor(t, router, Config{})
	client := dialUDP(t, addr)

	query := mustPack(t, dnswire.NewQuery(0, dnswire.MustName("burst.example."), dnswire.TypeA))
	for b := 0; b < bursts; b++ {
		armed.Store(true)
		for i := 0; i < burst; i++ {
			binary.BigEndian.PutUint16(query, uint16(b*burst+i))
			if _, err := client.Write(query); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		sent <- struct{}{}
		for i := 0; i < burst; i++ {
			if _, ok := readAnswer(t, client, 5*time.Second); !ok {
				t.Fatalf("burst %d: answer %d missing", b, i)
			}
		}
	}

	m := srv.m
	queries := float64(m.relayed.Load())
	if queries != burst*bursts {
		t.Fatalf("relayed %v of %d queries", queries, burst*bursts)
	}
	if got := m.batchRounds.Load(); got > 2*bursts {
		t.Errorf("%d listener receive rounds (an upper bound on forward-socket sends) for %d gated bursts, want <= 2 each", got, bursts)
	}
	if got := float64(m.relayRounds.Load()) / queries; os.Getenv("BENCH_GATES") != "" && got > 0.25 {
		t.Errorf("%.3f peer receive rounds (= client-side sends) per query, want <= 0.25", got)
	}
	t.Logf("%.1f forwards per listener round, %.1f answers per relay round",
		queries/float64(m.batchRounds.Load()), float64(m.relayDatagrams.Load())/float64(m.relayRounds.Load()))
}

// TestRelayAllocs: a relayed query allocates what ScanQuery does — the
// canonical name — and nothing else, on the way out or back.
func TestRelayAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate")
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	peerDone := make(chan struct{})
	go func() { // an echo peer that allocates nothing itself
		defer close(peerDone)
		buf := make([]byte, 512)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			buf[2] |= 0x80
			conn.WriteToUDPAddrPort(buf[:n], from)
		}
	}()
	defer func() { conn.Close(); <-peerDone }()

	tok := &stubPeerToken{addr: conn.LocalAddr().(*net.UDPAddr).AddrPort()}
	srv, addr, _ := startRelayDoor(t, &stubRouter{peer: tok, timeout: 5 * time.Second}, Config{})
	client := dialUDP(t, addr)
	query := mustPack(t, dnswire.NewQuery(1, dnswire.MustName("allocs.example."), dnswire.TypeA))
	buf := make([]byte, 512)
	client.SetReadDeadline(time.Now().Add(30 * time.Second))
	roundTrip := func() {
		if _, err := client.Write(query); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := client.Read(buf); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	roundTrip() // dials the peer socket, starts its reader
	allocs := testing.AllocsPerRun(500, roundTrip)
	if allocs > 1 {
		t.Errorf("%.2f allocs per relayed query, want at most ScanQuery's 1", allocs)
	}
	if srv.m.relayed.Load() < 500 {
		t.Fatalf("only %d queries were relayed", srv.m.relayed.Load())
	}
}

// TestRelayWireErrorAllocs: relayed to a peer front door that answers from
// its wire cache, a cached error costs the process no more allocations
// than a positive hit does.
func TestRelayWireErrorAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate")
	}
	fail := dnswire.MustName("fail.example.")
	now := time.Unix(int64(testbed.Now), 0)
	peerAddr, peer := startUDP(t, Config{Handler: frontend.New(mixedUpstream, frontend.Config{Now: func() time.Time { return now }})})
	tok := &stubPeerToken{addr: netip.MustParseAddrPort(peerAddr)}
	_, addr, _ := startRelayDoor(t, &stubRouter{peer: tok, timeout: 5 * time.Second}, Config{})
	client := dialUDP(t, addr)
	client.SetReadDeadline(time.Now().Add(30 * time.Second))
	buf := make([]byte, 512)

	allocsFor := func(name dnswire.Name) float64 {
		query := mustPack(t, dnswire.NewQuery(1, name, dnswire.TypeA))
		roundTrip := func() {
			if _, err := client.Write(query); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := client.Read(buf); err != nil {
				t.Fatalf("read: %v", err)
			}
		}
		roundTrip() // the miss: an answer, or the failure
		roundTrip() // a wire serve, or the cached-error hit that captures
		before := peer.m.wireServes[TransportUDP].Load()
		allocs := testing.AllocsPerRun(500, roundTrip)
		if got := peer.m.wireServes[TransportUDP].Load() - before; got < 500 {
			t.Fatalf("%s: only %d of the measured queries were wire serves at the peer", name, got)
		}
		return allocs
	}
	hit := allocsFor(dnswire.MustName("hit.example."))
	if errHit := allocsFor(fail); errHit > hit {
		t.Errorf("a relayed wire-served cached error allocates %.2f times, a positive hit %.2f", errHit, hit)
	}
}

// tableIO feeds relayTable.add one datagram from one address.
func tableIO(data []byte, from netip.AddrPort) *oneIO {
	return &oneIO{buf: data, n: len(data), raddr: net.UDPAddrFromAddrPort(from)}
}

func scan(t testing.TB, data []byte) dnswire.WireQuery {
	t.Helper()
	wq, ok := dnswire.ScanQuery(data)
	if !ok {
		t.Fatalf("ScanQuery refused %x", data)
	}
	return wq
}

// asAnswer turns a query datagram into the minimal answer echoing it.
func asAnswer(query []byte, fid uint16) []byte {
	a := append([]byte(nil), query...)
	binary.BigEndian.PutUint16(a, fid)
	a[2] |= 0x80
	return a
}

// TestRelayTableLateAnswer: client A's query expires; its forward ID comes
// round again for client B's different question. The peer's late answer to
// A carries B's ID — it must not be claimed; B's own answer must.
func TestRelayTableLateAnswer(t *testing.T) {
	tbl := relayTable{slots: make([]relaySlot, 8)}
	tok := &stubPeerToken{}
	a := netip.MustParseAddrPort("192.0.2.10:1000")
	b := netip.MustParseAddrPort("192.0.2.20:2000")
	qa := mustPack(t, dnswire.NewQuery(0xAAAA, dnswire.MustName("a.example."), dnswire.TypeA))
	qb := mustPack(t, dnswire.NewQuery(0xBBBB, dnswire.MustName("b.example."), dnswire.TypeA))

	fid, ok := tbl.add(tableIO(qa, a), 0, scan(t, qa), tok, 0)
	if !ok {
		t.Fatal("add refused on an empty table")
	}
	lateAnswer := asAnswer(qa, fid)

	expired := tbl.take(relayTicks+1, relayTicks+1)
	if len(expired) != 1 || expired[0].cid != 0xAAAA || !bytes.Equal(expired[0].query[:expired[0].n], qa) {
		t.Fatalf("take returned %d entries, want A's query with its own ID for re-dispatch", len(expired))
	}

	tbl.next = fid - 1 // the 16-bit ID wrapped
	fidB, ok := tbl.add(tableIO(qb, b), 0, scan(t, qb), tok, 9)
	if !ok || fidB != fid {
		t.Fatalf("B got forward ID %#x ok=%t, want A's old %#x", fidB, ok, fid)
	}

	var from udpAddr
	if _, _, ok := tbl.claim(lateAnswer, &from); ok {
		t.Fatal("A's late answer was claimed for B's query")
	}
	cid, _, ok := tbl.claim(asAnswer(qb, fid), &from)
	if !ok || cid != 0xBBBB {
		t.Fatalf("B's own answer: ok=%t cid=%#x, want true and 0xbbbb", ok, cid)
	}
	if _, _, ok := tbl.claim(asAnswer(qb, fid), &from); ok {
		t.Fatal("a duplicate answer was claimed twice")
	}
	if !tbl.idle() {
		t.Fatal("table not empty after every query was claimed or expired")
	}
}

// TestRelayClaimMatching: what must and must not match besides the ID.
func TestRelayClaimMatching(t *testing.T) {
	q := dnswire.NewQuery(1, dnswire.MustName("match.example."), dnswire.TypeA)
	q.CheckingDisabled = true
	query := mustPack(t, q)
	from := netip.MustParseAddrPort("192.0.2.10:1000")
	mutate := func(f func(a []byte)) func(fid uint16) []byte {
		return func(fid uint16) []byte { a := asAnswer(query, fid); f(a); return a }
	}
	for _, tc := range []struct {
		name   string
		answer func(fid uint16) []byte
		want   bool
	}{
		{"echo", mutate(func([]byte) {}), true},
		{"upper-case echo", mutate(func(a []byte) { a[13] = 'M'; a[19] = 'E' }), true},
		{"query, not a response", mutate(func(a []byte) { a[2] &^= 0x80 }), false},
		{"other name, same length", mutate(func(a []byte) { a[13] = 'n' }), false},
		{"label length off by 0x20", mutate(func(a []byte) { a[12] |= 0x20 }), false},
		{"other type", mutate(func(a []byte) { a[len(a)-11-4+1] = byte(dnswire.TypeAAAA) }), false},
		{"CD cleared", mutate(func(a []byte) { a[3] &^= 0x10 }), false},
		{"RD cleared", mutate(func(a []byte) { a[2] &^= 0x01 }), false},
		{"no question", mutate(func(a []byte) { a[5] = 0 }), false},
		{"header only", func(fid uint16) []byte { return asAnswer(query, fid)[:12] }, false},
		{"wrong ID", func(fid uint16) []byte { return asAnswer(query, fid+8) }, false},
	} {
		tbl := relayTable{slots: make([]relaySlot, 8)}
		fid, _ := tbl.add(tableIO(query, from), 0, scan(t, query), &stubPeerToken{}, 0)
		var got udpAddr
		if _, _, ok := tbl.claim(tc.answer(fid), &got); ok != tc.want {
			t.Errorf("%s: claimed=%t, want %t", tc.name, ok, tc.want)
		}
	}
}

// FuzzRelayAnswer: whatever bytes arrive on the peer socket, claim never
// panics, and it releases a pending query only to a datagram that echoes
// that query's question under that query's forward ID.
func FuzzRelayAnswer(f *testing.F) {
	names := []string{"a.example.", "b.example.", "a.example.", "long-label-here.sub.example.org."}
	var queries [][]byte
	for i, n := range names {
		q := dnswire.NewQuery(uint16(0x100+i), dnswire.MustName(n), dnswire.TypeA)
		if i == 2 {
			q.OPT = nil
			q.Question[0].Type = dnswire.TypeAAAA
		}
		b, err := q.Pack()
		if err != nil {
			f.Fatal(err)
		}
		queries = append(queries, b)
	}
	for i, q := range queries {
		f.Add(asAnswer(q, uint16(i+1)))
		f.Add(asAnswer(q, uint16(i+2)))
	}
	f.Add([]byte{0, 1, 0x80, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, ans []byte) {
		tbl := relayTable{slots: make([]relaySlot, 4)}
		for i, q := range queries {
			from := netip.AddrPortFrom(mustAddr("192.0.2.1"), uint16(1000+i))
			if _, ok := tbl.add(tableIO(q, from), 0, scan(t, q), &stubPeerToken{}, 0); !ok {
				t.Fatal("add refused")
			}
		}
		var from udpAddr
		cid, _, ok := tbl.claim(append([]byte(nil), ans...), &from)
		if !ok {
			return
		}
		// The claimed query is the one with the returned client ID.
		q := queries[cid-0x100]
		end := len(q)
		if binary.BigEndian.Uint16(q[10:]) == 1 {
			end -= 11
		}
		question := q[12:end]
		if len(ans) < 12+len(question) || !bytes.EqualFold(ans[12:12+len(question)-4], question[:len(question)-4]) ||
			!bytes.Equal(ans[12+len(question)-4:12+len(question)], question[len(question)-4:]) {
			t.Fatalf("datagram %x claimed the query for %x, whose question it does not echo", ans, question)
		}
		if fid := binary.BigEndian.Uint16(ans); int(fid) != int(cid-0x100)+1 {
			t.Fatalf("datagram with ID %#x claimed the query forwarded as %#x", fid, cid-0x100+1)
		}
	})
}
