package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// door is one transport front door on loopback: UDP always, TCP on request.
type door struct {
	udp, tcp string
	reg      *telemetry.Registry
}

func (d door) metric(t *testing.T, name string, labels ...telemetry.Label) float64 {
	t.Helper()
	v, ok := d.reg.Value(name, labels...)
	if !ok {
		t.Fatalf("metric %s%v not registered", name, labels)
	}
	return v
}

// startDoor serves cfg.Handler until the test ends, and fails the test if
// the listeners do not drain. With TCP, both listen on one address, as a
// DNS server does (edeserver -addr and -tcp given the same address).
func startDoor(t *testing.T, cfg transport.Config, withTCP bool) door {
	t.Helper()
	d := door{reg: telemetry.NewRegistry()}
	cfg.Registry = d.reg
	srv := transport.NewServer(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, 2)
	n := 1
	var conn *net.UDPConn
	var l net.Listener
	for try := 0; ; try++ {
		var err error
		conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		if !withTCP {
			break
		}
		if l, err = net.Listen("tcp", conn.LocalAddr().String()); err == nil {
			break
		}
		conn.Close()
		if try == 10 {
			t.Fatalf("listen: %v", err)
		}
	}
	d.udp = conn.LocalAddr().String()
	go func() { srv.ServeUDP(ctx, conn); done <- struct{}{} }()
	if withTCP {
		d.tcp = l.Addr().String()
		n++
		go func() { srv.ServeTCP(ctx, l); done <- struct{}{} }()
	}
	t.Cleanup(func() {
		cancel()
		for i := 0; i < n; i++ {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("front door did not drain")
				return
			}
		}
	})
	return d
}

// tcpAsk sends q over a new TCP connection to addr and returns the answer's
// bytes.
func tcpAsk(t *testing.T, addr string, q *dnswire.Message) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	frame, err := q.AppendStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	var n [2]byte
	if _, err := io.ReadFull(conn, n[:]); err != nil {
		t.Fatalf("read: %v", err)
	}
	resp := make([]byte, binary.BigEndian.Uint16(n[:]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatalf("read: %v", err)
	}
	return resp
}

// routerDoor puts cl behind a front door, with the wire paths (and so the
// relay) on or off.
func routerDoor(t *testing.T, cl *Cluster, disableWire, withTCP bool) door {
	t.Helper()
	return startDoor(t, transport.Config{Handler: cl, Wire: cl, DisableWire: disableWire}, withTCP)
}

// udpClient is a socket that matches answers to queries by ID.
type udpClient struct {
	t    *testing.T
	conn *net.UDPConn
	buf  []byte
}

func newUDPClient(t *testing.T, addr string) *udpClient {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &udpClient{t: t, conn: conn.(*net.UDPConn), buf: make([]byte, 65535)}
}

func (c *udpClient) send(query []byte) {
	c.t.Helper()
	if _, err := c.conn.Write(query); err != nil {
		c.t.Fatalf("write: %v", err)
	}
}

// recv returns the next datagram, or nil after wait.
func (c *udpClient) recv(wait time.Duration) []byte {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(wait))
	n, err := c.conn.Read(c.buf)
	if err != nil {
		return nil
	}
	return append([]byte(nil), c.buf[:n]...)
}

// ask sends query and returns its answer with the ID zeroed.
func (c *udpClient) ask(query []byte) []byte {
	c.t.Helper()
	c.send(query)
	resp := c.recv(5 * time.Second)
	if resp == nil {
		c.t.Fatalf("no answer to %x", query)
	}
	if !bytes.Equal(resp[:2], query[:2]) {
		c.t.Fatalf("answer ID %x, query ID %x", resp[:2], query[:2])
	}
	resp[0], resp[1] = 0, 0
	return resp
}

// startReplica serves a frontend over tb on loopback UDP: a secondary
// replica's front door.
func startReplica(t *testing.T, tb *testbed.Testbed, clock *vclock) string {
	t.Helper()
	r := tb.NewResolver(resolver.ProfileCloudflare())
	r.Now = clock.Now
	fe := frontend.New(forwarder.ResolverUpstream{R: r}, frontend.Config{Now: clock.Now})
	return startDoor(t, transport.Config{Handler: fe}, false).udp
}

// TestRelayMatchesParsedForward is the relay's transparency proof: for
// every testbed case x {cd, !cd} x {EDNS, plain}, one router answers through
// the relay and the same router under DisableWire through the parsed
// forward, and the bytes agree, ID aside. Plus a mixed-case name, which
// ScanQuery leaves to the parsed path on both. (No testbed answer is large
// enough to truncate: TestRemoteForwardLargeAnswer compares those.)
func TestRelayMatchesParsedForward(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("build testbed: %v", err)
	}
	clock := newVClock()
	cl := New(Config{Seed: 1, forwardTimeout: 3 * time.Second})
	if err := cl.AddRemote("peer", startReplica(t, tb, clock)); err != nil {
		t.Fatalf("AddRemote: %v", err)
	}
	relay, parsed := routerDoor(t, cl, false, false), routerDoor(t, cl, true, false)
	viaRelay, viaParsed := newUDPClient(t, relay.udp), newUDPClient(t, parsed.udp)

	id := uint16(0)
	// compare warms the peer's cache (the first answer is the miss, which
	// lacks what only hits carry), then asks both routers twice over.
	compare := func(t *testing.T, q *dnswire.Message, mangle func([]byte)) {
		t.Helper()
		pack := func() []byte {
			id++
			q.ID = id
			b, err := q.Pack()
			if err != nil {
				t.Fatalf("pack: %v", err)
			}
			if mangle != nil {
				mangle(b)
			}
			return b
		}
		viaParsed.ask(pack())
		want := viaParsed.ask(pack())
		for pass := 1; pass <= 2; pass++ {
			if got := viaRelay.ask(pack()); !bytes.Equal(got, want) {
				t.Fatalf("pass %d: relayed answer differs from the parsed forward's\nparsed: %x\nrelay:  %x", pass, want, got)
			}
		}
	}

	for _, c := range tb.Cases {
		for _, cd := range []bool{false, true} {
			for _, edns := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/cd=%v/edns=%v", c.Label, cd, edns), func(t *testing.T) {
					q := dnswire.NewQuery(0, c.Query, dnswire.TypeA)
					q.CheckingDisabled = cd
					if !edns {
						q.OPT = nil
					}
					compare(t, q, nil)
				})
			}
		}
	}
	relayed := relay.metric(t, "edelab_frontdoor_relayed_total")
	if want := float64(2 * 4 * len(tb.Cases)); relayed != want {
		t.Errorf("relayed_total = %v, want %v: every scannable query to the relay router", relayed, want)
	}

	t.Run("mixed case", func(t *testing.T) {
		q := dnswire.NewQuery(0, caseByLabel(t, tb, "valid").Query, dnswire.TypeA)
		compare(t, q, func(b []byte) { b[13] &^= 0x20 })
		if got := relay.metric(t, "edelab_frontdoor_relayed_total"); got != relayed {
			t.Errorf("relayed_total moved %v -> %v on a name ScanQuery refuses", relayed, got)
		}
	})

	for _, reason := range []string{"expired", "peer_error", "unmatched"} {
		if v := relay.metric(t, "edelab_frontdoor_relay_failures_total", telemetry.L("reason", reason)); v != 0 {
			t.Errorf("relay_failures_total{%s} = %v, want 0", reason, v)
		}
	}
	if v := relay.metric(t, "edelab_frontdoor_wire_serves_total", telemetry.L("transport", "udp")); v != 0 {
		t.Errorf("wire_serves_total = %v on a router without local replicas: relays must not count", v)
	}
	if v := parsed.metric(t, "edelab_frontdoor_relayed_total"); v != 0 {
		t.Errorf("relayed_total = %v under DisableWire, want 0", v)
	}
	if got, want := cl.StateSnapshot().Members[0].Routed, uint64(relayed); got <= want {
		t.Errorf("routed_total{peer} = %d, want relayed (%d) plus parsed forwards", got, want)
	}
}

// TestClusterEDNSConformance holds a three-replica router (two in-process
// replicas and a remote one that owns the question) to two of the RFC rows
// of internal/transport's TestEDNSConformance, through the relay (wire paths
// on) and through the parsed forward (DisableWire), each asked twice:
//   - RFC 6891 §6.1.3: a query for EDNS version 1 gets BADVERS in an OPT of
//     version 0 and no answer, and no replica resolves it;
//   - RFC 1035 §4.1.1: a message with QR=1 is a response, not a query: the
//     UDP door drops it and TCP answers FORMERR.
//
// Version 0 of the same question afterwards resolves, on the remote owner.
func TestClusterEDNSConformance(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("build testbed: %v", err)
	}
	clock := newVClock()
	cl, _, ups := buildCluster(t, tb, clock, 2, Config{Seed: 1, forwardTimeout: 3 * time.Second})
	r := tb.NewResolver(resolver.ProfileCloudflare())
	r.Now = clock.Now
	remote := &countingUpstream{up: forwarder.ResolverUpstream{R: r}}
	peer := startDoor(t, transport.Config{Handler: frontend.New(remote, frontend.Config{Now: clock.Now})}, false)
	if err := cl.AddRemote("peer", peer.udp); err != nil {
		t.Fatalf("AddRemote: %v", err)
	}
	ups = append(ups, remote)
	asked := func() (n int64) {
		for _, u := range ups {
			n += u.calls.Load()
		}
		return n
	}
	var name dnswire.Name
	for _, c := range tb.Cases {
		if cl.OwnerID(c.Query, dnswire.TypeA, false) == "peer" {
			name = c.Query
			break
		}
	}
	if name == "" {
		t.Fatal("the remote replica owns no testbed case")
	}
	pack := func(q *dnswire.Message) []byte {
		b, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	doors := []struct {
		name string
		door door
	}{{"relay", routerDoor(t, cl, false, true)}, {"parsed", routerDoor(t, cl, true, true)}}
	for _, d := range doors {
		udp := newUDPClient(t, d.door.udp)
		for ask := uint16(1); ask <= 2; ask++ {
			q := dnswire.NewQuery(ask, name, dnswire.TypeA)
			q.OPT.Version = 1
			for door, raw := range map[string][]byte{"udp": udp.ask(pack(q)), "tcp": tcpAsk(t, d.door.tcp, q)} {
				resp, err := dnswire.Unpack(raw)
				if err != nil || resp.RCode != dnswire.RCodeBadVers || resp.OPT == nil || resp.OPT.Version != 0 || len(resp.Answer) != 0 {
					t.Errorf("%s %s ask %d, EDNS version 1: %v (%v), want BADVERS in an OPT of version 0 and no answer", d.name, door, ask, resp, err)
				}
			}

			q = dnswire.NewQuery(ask, name, dnswire.TypeA)
			q.Response = true
			udp.send(pack(q))
			if got := udp.recv(250 * time.Millisecond); got != nil {
				t.Errorf("%s udp ask %d, QR=1: answered %x, want dropped", d.name, ask, got)
			}
			if resp, err := dnswire.Unpack(tcpAsk(t, d.door.tcp, q)); err != nil || resp.RCode != dnswire.RCodeFormErr {
				t.Errorf("%s tcp ask %d, QR=1: %v (%v), want FORMERR", d.name, ask, resp, err)
			}
		}
		if n := asked(); n != 0 {
			t.Fatalf("%s: the replicas resolved %d times", d.name, n)
		}
	}
	resp, err := dnswire.Unpack(newUDPClient(t, doors[0].door.udp).ask(pack(dnswire.NewQuery(3, name, dnswire.TypeA))))
	if err != nil || resp.RCode == dnswire.RCodeBadVers || remote.calls.Load() != 1 {
		t.Errorf("version 0 afterwards: %v (%v) after %d recursions on the owner, want an answer after 1", resp, err, remote.calls.Load())
	}
}

// failingUpstream answers every question SERVFAIL with the diagnosis of an
// expired signature, so a frontend over it re-serves the failure with EDE 13.
type failingUpstream struct{}

func (failingUpstream) Exchange(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
	r := dnswire.NewQuery(0, qname, dnswire.TypeA).Reply()
	r.RCode = dnswire.RCodeServFail
	r.AddEDE(uint16(ede.CodeSignatureExpired), "RRSIG for "+qname.String()+" A expired")
	return r, nil
}

// TestRelayCachedErrorFromWire: a cached SERVFAIL + EDE owned by a remote
// replica comes back through the relay byte-identical to the all-parsed
// path (a DisableWire router forwarding to a DisableWire door on the same
// replica frontend), and the replica's door answers it from its wire cache.
func TestRelayCachedErrorFromWire(t *testing.T) {
	clock := newVClock()
	fe := frontend.New(failingUpstream{}, frontend.Config{Now: clock.Now})
	wired := startDoor(t, transport.Config{Handler: fe}, false)
	slow := startDoor(t, transport.Config{Handler: fe, DisableWire: true}, false)
	router := func(replica string, disableWire bool) door {
		cl := New(Config{Seed: 1, forwardTimeout: 3 * time.Second})
		if err := cl.AddRemote("peer", replica); err != nil {
			t.Fatalf("AddRemote: %v", err)
		}
		return routerDoor(t, cl, disableWire, false)
	}
	relay, parsed := router(wired.udp, false), router(slow.udp, true)
	viaRelay, viaParsed := newUDPClient(t, relay.udp), newUDPClient(t, parsed.udp)
	wireServes := func() float64 {
		return wired.metric(t, "edelab_frontdoor_wire_serves_total", telemetry.L("transport", "udp"))
	}

	id := uint16(0)
	for _, edns := range []bool{true, false} {
		q := dnswire.NewQuery(0, dnswire.MustName("fail.example."), dnswire.TypeA)
		if !edns {
			q.OPT = nil
		}
		pack := func() []byte {
			id++
			q.ID = id
			b, err := q.Pack()
			if err != nil {
				t.Fatalf("pack: %v", err)
			}
			return b
		}
		viaParsed.ask(pack())         // the failure
		want := viaParsed.ask(pack()) // the first cached-error hit, which captures
		before := wireServes()
		for pass := 1; pass <= 2; pass++ {
			if got := viaRelay.ask(pack()); !bytes.Equal(got, want) {
				t.Fatalf("edns=%t pass %d: relayed cached error differs from the parsed path\nparsed: %x\nrelay:  %x", edns, pass, want, got)
			}
		}
		if n := wireServes() - before; n != 2 {
			t.Errorf("edns=%t: the replica's wire serves moved by %v, want 2", edns, n)
		}
	}
	if v := relay.metric(t, "edelab_frontdoor_relayed_total"); v != 4 {
		t.Errorf("relayed_total = %v, want 4", v)
	}
	if v := slow.metric(t, "edelab_frontdoor_wire_serves_total", telemetry.L("transport", "udp")); v != 0 {
		t.Errorf("DisableWire replica door made %v wire serves", v)
	}
}

// blackHole is a UDP socket standing in for a replica that has stopped
// answering: it keeps what it receives for the test to answer, or not.
type blackHole struct {
	conn *net.UDPConn
	got  chan heldQuery
}

type heldQuery struct {
	data []byte
	from netip.AddrPort
}

func startBlackHole(t *testing.T) *blackHole {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	// Sized past what any test sends, so the reader never blocks.
	b := &blackHole{conn: conn, got: make(chan heldQuery, 256)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 65535)
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			b.got <- heldQuery{data: append([]byte(nil), buf[:n]...), from: from}
		}
	}()
	t.Cleanup(func() { conn.Close(); <-done })
	return b
}

func (b *blackHole) next(t *testing.T) heldQuery {
	t.Helper()
	select {
	case h := <-b.got:
		return h
	case <-time.After(5 * time.Second):
		t.Fatal("nothing was forwarded to the remote replica")
		return heldQuery{}
	}
}

// ownedBy returns packed queries, n of them, for testbed names the ring
// gives to replica id.
func ownedBy(t *testing.T, cl *Cluster, tb *testbed.Testbed, id string, n int) [][]byte {
	t.Helper()
	var names []dnswire.Name
	for _, c := range tb.Cases {
		if cl.OwnerID(c.Query, dnswire.TypeA, false) == id {
			names = append(names, c.Query)
		}
	}
	if len(names) == 0 {
		t.Fatalf("the ring gives no testbed name to %q", id)
	}
	out := make([][]byte, n)
	for i := range out {
		b, err := dnswire.NewQuery(uint16(i+1), names[i%len(names)], dnswire.TypeA).Pack()
		if err != nil {
			t.Fatalf("pack: %v", err)
		}
		out[i] = b
	}
	return out
}

// TestRelayPeerKilledTakeover: the remote replica dies with 64 relayed
// queries outstanding. Every one of them is answered by the surviving local
// replica, the failures mark the peer down, and nothing is relayed to it
// afterwards.
func TestRelayPeerKilledTakeover(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("build testbed: %v", err)
	}
	cl, _, _ := buildCluster(t, tb, newVClock(), 1, Config{
		Seed: 1, forwardTimeout: 200 * time.Millisecond,
	})
	hole := startBlackHole(t)
	if err := cl.AddRemote("peer", hole.conn.LocalAddr().String()); err != nil {
		t.Fatalf("AddRemote: %v", err)
	}
	router := routerDoor(t, cl, false, false)
	client := newUDPClient(t, router.udp)

	const n = 64
	queries := ownedBy(t, cl, tb, "peer", n+8)
	for _, q := range queries[:n] {
		client.send(q)
	}
	for i := 0; i < n; i++ {
		hole.next(t)
	}
	if got := router.metric(t, "edelab_frontdoor_relayed_total"); got != n {
		t.Fatalf("relayed_total = %v with %d queries at the peer", got, n)
	}
	hole.conn.Close()

	answered := make(map[uint16]bool)
	for len(answered) < n {
		resp := client.recv(5 * time.Second)
		if resp == nil {
			t.Fatalf("%d of %d outstanding queries answered after the peer died", len(answered), n)
		}
		m, err := dnswire.Unpack(resp)
		if err != nil || !m.Response || len(m.Question) != 1 {
			t.Fatalf("takeover answer does not parse as a response: %v", err)
		}
		answered[m.ID] = true
	}
	if clMetric(t, cl, "edelab_cluster_forward_failures_total") == 0 {
		t.Error("forward_failures_total did not move")
	}
	if got := clMetric(t, cl, "edelab_cluster_takeovers_total"); got < n {
		t.Errorf("takeovers_total = %v, want at least the %d re-dispatched queries", got, n)
	}
	if st := cl.StateSnapshot().Members[1]; st.ID != "peer" || st.State != "down" {
		t.Fatalf("member %s is %s, want peer down", st.ID, st.State)
	}

	for _, q := range queries[n:] {
		client.ask(q)
	}
	if got := router.metric(t, "edelab_frontdoor_relayed_total"); got != n {
		t.Errorf("relayed_total = %v: %v queries were relayed to a replica marked down", got, got-n)
	}
}

// TestRelayDrainWaits: Drain's wait on a replica's in-flight count covers
// relayed queries.
func TestRelayDrainWaits(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("build testbed: %v", err)
	}
	cl, _, _ := buildCluster(t, tb, newVClock(), 1, Config{Seed: 1, forwardTimeout: 10 * time.Second})
	hole := startBlackHole(t)
	if err := cl.AddRemote("peer", hole.conn.LocalAddr().String()); err != nil {
		t.Fatalf("AddRemote: %v", err)
	}
	router := routerDoor(t, cl, false, false)
	client := newUDPClient(t, router.udp)

	query := ownedBy(t, cl, tb, "peer", 1)[0]
	client.send(query)
	held := hole.next(t)

	drained := make(chan error, 1)
	go func() { drained <- cl.Drain(context.Background(), "peer") }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a relayed query in flight", err)
	case <-time.After(150 * time.Millisecond):
	}

	held.data[2] |= 0x80 // the query, QR set, is answer enough
	if _, err := hole.conn.WriteToUDPAddrPort(held.data, held.from); err != nil {
		t.Fatalf("peer write: %v", err)
	}
	if resp := client.recv(5 * time.Second); resp == nil || binary.BigEndian.Uint16(resp) != binary.BigEndian.Uint16(query) {
		t.Fatal("the relayed answer did not reach the client")
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain still blocked after the relayed query was answered")
	}
}

// TestRemoteForwardLargeAnswer: a 5 KB answer owned by a remote replica
// reaches a UDP client that advertised 8,192 bytes and a TCP client whole —
// relayed, and through the parsed forward, which used to read it into 4 KiB
// (an Unpack error, a forward failure, and after three a healthy replica
// marked down) and used to hand TCP clients the peer's TC=1. A client that
// advertises 512 gets the same rung of the truncation ladder either way:
// the relay has the peer truncate for the client's OPT, the parsed forward
// truncates at the router.
func TestRemoteForwardLargeAnswer(t *testing.T) {
	const records = 300
	big := netsim.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.RecursionAvailable = true
		for i := 0; i < records; i++ {
			r.Answer = append(r.Answer, dnswire.RR{
				Name: q.Question[0].Name, TTL: 60, Class: dnswire.ClassIN,
				Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
			})
		}
		// Too long for 512 bytes even with the sections emptied: the
		// ladder's second rung drops it and keeps the code.
		r.AddEDE(3, strings.Repeat("stale ", 100))
		return r, nil
	})
	cl := New(Config{Seed: 1, forwardTimeout: 2 * time.Second})
	if err := cl.AddRemote("peer", startDoor(t, transport.Config{Handler: big}, true).udp); err != nil {
		t.Fatalf("AddRemote: %v", err)
	}
	// What the handler gives a TCP client that sends no OPT, served locally.
	plain := dnswire.NewQuery(11, "big.example.", dnswire.TypeA)
	plain.OPT = nil
	local := tcpAsk(t, startDoor(t, transport.Config{Handler: big}, true).tcp, plain)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	query := func(id uint16, size uint16) []byte {
		q := dnswire.NewQuery(id, "big.example.", dnswire.TypeA)
		q.OPT.UDPSize = size
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}

	var whole, cut [2][]byte // the UDP answers at 8,192 and at 512, per router
	for i, tc := range []struct {
		name        string
		disableWire bool
	}{{"relay", false}, {"parsed forward", true}} {
		t.Run(tc.name, func(t *testing.T) {
			router := routerDoor(t, cl, tc.disableWire, true)
			client := newUDPClient(t, router.udp)
			for id := uint16(1); id <= remoteFailureLimit+1; id++ { // enough failures to mark the peer down
				whole[i] = client.ask(query(id, 8192))
				resp, err := dnswire.Unpack(whole[i])
				if err != nil {
					t.Fatalf("UDP query %d: %v", id, err)
				}
				if resp.Truncated || len(resp.Answer) != records {
					t.Fatalf("UDP query %d: TC=%t with %d answers, want all %d", id, resp.Truncated, len(resp.Answer), records)
				}
			}
			resp, err := transport.QueryTCP(ctx, router.tcp, dnswire.NewQuery(9, "big.example.", dnswire.TypeA))
			if err != nil {
				t.Fatalf("TCP query: %v", err)
			}
			if resp.Truncated || len(resp.Answer) != records {
				t.Fatalf("TCP: TC=%t with %d answers, want all %d: truncation is the router's call, against the client's limit", resp.Truncated, len(resp.Answer), records)
			}
			if st := cl.StateSnapshot().Members[0]; st.State != "active" {
				t.Fatalf("replica is %s after large answers, want active", st.State)
			}
			if got := clMetric(t, cl, "edelab_cluster_forward_failures_total"); got != 0 {
				t.Errorf("forward_failures_total = %v, want 0", got)
			}

			// No OPT to raise: over UDP the peer must cut this answer at
			// 512 bytes, yet the router's TCP client gets it whole.
			if got := tcpAsk(t, router.tcp, plain); !bytes.Equal(got, local) {
				t.Errorf("TCP without OPT: the router answers\n%x\nthe handler locally\n%x", got, local)
			}

			cut[i] = client.ask(query(10, 512))
			resp, err = dnswire.Unpack(cut[i])
			if err != nil {
				t.Fatalf("UDP query at 512: %v", err)
			}
			if edes := resp.EDEs(); len(cut[i]) > 512 || !resp.Truncated || len(edes) != 1 || edes[0].ExtraText != "" {
				t.Fatalf("at 512: %d bytes, TC=%t, EDEs %+v; want TC=1 within 512 with the bare EDE code", len(cut[i]), resp.Truncated, edes)
			}
			if want := float64(5); !tc.disableWire && router.metric(t, "edelab_frontdoor_relayed_total") != want {
				t.Errorf("relayed_total = %v, want %v", router.metric(t, "edelab_frontdoor_relayed_total"), want)
			}
		})
	}
	if !bytes.Equal(whole[0], whole[1]) {
		t.Errorf("whole answer: relay and parsed forward differ\nrelay:  %x\nparsed: %x", whole[0], whole[1])
	}
	if !bytes.Equal(cut[0], cut[1]) {
		t.Errorf("truncated answer: relay and parsed forward differ\nrelay:  %x\nparsed: %x", cut[0], cut[1])
	}
}

// TestRoutingAllocs: routing costs no allocation. ServeWire on a locally
// owned hit allocates what the owner's Frontend.ServeWire does, RouteWire on
// a remotely owned name nothing, and the ring walk behind a draining owner
// stays in its caller's array.
func TestRoutingAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate")
	}
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("build testbed: %v", err)
	}
	cl, reps, _ := buildCluster(t, tb, newVClock(), 2, Config{Seed: 1})
	if err := cl.AddRemote("peer", "127.0.0.1:9"); err != nil {
		t.Fatalf("AddRemote: %v", err)
	}
	scanFor := func(id string) dnswire.WireQuery {
		wq, ok := dnswire.ScanQuery(ownedBy(t, cl, tb, id, 1)[0])
		if !ok {
			t.Fatal("ScanQuery refused a testbed query")
		}
		return wq
	}
	ctx := context.Background()
	dst := make([]byte, 0, 4096)

	local := scanFor("r0")
	for i := 0; i < 2; i++ { // the miss that captures the wire image, then a hit
		if _, err := cl.HandleDNS(ctx, dnswire.NewQuery(1, local.Name, dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := cl.ServeWire(local, 1232, dst); !ok {
		t.Fatal("no wire hit on the local owner")
	}
	direct := testing.AllocsPerRun(200, func() { reps[0].Frontend().ServeWire(local, 1232, dst) })
	routed := testing.AllocsPerRun(200, func() { cl.ServeWire(local, 1232, dst) })
	if routed > direct {
		t.Errorf("Cluster.ServeWire: %.1f allocs per local hit, Frontend.ServeWire %.1f", routed, direct)
	}
	t.Logf("allocs per local wire hit: Frontend.ServeWire %.1f, Cluster.ServeWire %.1f", direct, routed)

	remote := scanFor("peer")
	route := func() {
		rp, ok := cl.RouteWire(remote)
		if !ok {
			t.Fatal("RouteWire declined a remotely owned name")
		}
		rp.Done(transport.RelayAbandoned)
	}
	if allocs := testing.AllocsPerRun(200, route); allocs != 0 {
		t.Errorf("RouteWire: %.1f allocs per remotely owned query, want 0", allocs)
	}

	// The walk: r0 draining, so its names are served by the next node.
	if err := cl.MarkDraining("r0"); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { cl.ServeWire(local, 1232, dst) }); allocs > direct {
		t.Errorf("Cluster.ServeWire behind a draining owner: %.1f allocs, want at most %.1f", allocs, direct)
	}
	v := cl.viewP.Load()
	var buf [walkBuf]*node
	if allocs := testing.AllocsPerRun(200, func() { cl.candidates(v, keyHash(local.Name, local.Type, local.CD), buf[:0]) }); allocs != 0 {
		t.Errorf("candidates: %.1f allocs per walk into a caller-owned array, want 0", allocs)
	}
}
