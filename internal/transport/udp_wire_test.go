package transport

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"io"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// TestUDPFormerrOnGarbage: an unparseable datagram with a readable ID gets
// a minimal FORMERR back (ID echoed, QR set, no OPT, empty sections)
// instead of silence, so broken clients fail fast.
func TestUDPFormerrOnGarbage(t *testing.T) {
	addr, srv := startUDP(t, Config{Handler: bigAnswerHandler(1, "")})

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// A 12-byte header claiming one question, with no question bytes.
	garbage := []byte{0xDE, 0xAD, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0}
	if _, err := conn.Write(garbage); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 512)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no FORMERR came back: %v", err)
	}
	resp, err := dnswire.Unpack(buf[:n])
	if err != nil {
		t.Fatalf("unpacking FORMERR: %v", err)
	}
	if resp.ID != 0xDEAD || !resp.Response || resp.RCode != dnswire.RCodeFormErr {
		t.Errorf("got id=%#x qr=%t rcode=%s, want id=0xdead qr=true rcode=FORMERR",
			resp.ID, resp.Response, resp.RCode)
	}
	if !resp.RecursionDesired {
		t.Errorf("RD not echoed from the garbage header")
	}
	if resp.OPT != nil || len(resp.Question)+len(resp.Answer)+len(resp.Authority)+len(resp.Additional) != 0 {
		t.Errorf("FORMERR must be a bare header, got %+v", resp)
	}
	if got := srv.m.errors[TransportUDP].Load(); got == 0 {
		t.Error("garbage datagram not counted under the errors metric")
	}

	// A datagram too short to carry an ID gets nothing.
	if _, err := conn.Write([]byte{0x42}); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if n, err := conn.Read(buf); err == nil {
		t.Errorf("1-byte datagram got a %d-byte reply; there is no ID to echo", n)
	}
}

// startWiredFrontDoor boots a UDP front door over the full testbed stack
// with the wire fast path auto-enabled (the frontend implements
// WireServer).
func startWiredFrontDoor(t *testing.T, cfg Config) (string, *Server) {
	t.Helper()
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("building testbed: %v", err)
	}
	r := tb.NewResolver(resolver.ProfileCloudflare())
	fe := frontend.New(forwarder.ResolverUpstream{R: r}, frontend.Config{Now: tb.Clock})
	cfg.Handler = fe
	return startUDP(t, cfg)
}

// TestUDPWireFastPath: over a real socket, a repeated query is served by
// the wire fast path and the response content matches the slow-path fill.
func TestUDPWireFastPath(t *testing.T) {
	addr, srv := startWiredFrontDoor(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	qname := dnswire.MustName("valid.extended-dns-errors.com.")
	first, err := QueryUDP(ctx, addr, dnswire.NewQuery(1, qname, dnswire.TypeA))
	if err != nil {
		t.Fatalf("fill query: %v", err)
	}
	if srv.m.wireServes[TransportUDP].Load() != 0 {
		t.Fatal("fill query cannot be a wire serve")
	}
	second, err := QueryUDP(ctx, addr, dnswire.NewQuery(2, qname, dnswire.TypeA))
	if err != nil {
		t.Fatalf("hit query: %v", err)
	}
	if got := srv.m.wireServes[TransportUDP].Load(); got != 1 {
		t.Errorf("wire serves = %d, want 1 (cache hit must take the fast path)", got)
	}
	if len(second.Answer) != len(first.Answer) || second.RCode != first.RCode {
		t.Errorf("wire-served response diverged: first %+v, second %+v", first, second)
	}
}

// TestUDPWireDisabled: DisableWire forces every query down the Handler
// path even when it implements WireServer.
func TestUDPWireDisabled(t *testing.T) {
	addr, srv := startWiredFrontDoor(t, Config{DisableWire: true})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	qname := dnswire.MustName("valid.extended-dns-errors.com.")
	for id := uint16(1); id <= 2; id++ {
		if _, err := QueryUDP(ctx, addr, dnswire.NewQuery(id, qname, dnswire.TypeA)); err != nil {
			t.Fatalf("query %d: %v", id, err)
		}
	}
	if got := srv.m.wireServes[TransportUDP].Load(); got != 0 {
		t.Errorf("wire serves = %d with DisableWire, want 0", got)
	}
}

// TestListenUDPReusePort: two listeners share one port and both serve.
func TestListenUDPReusePort(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("SO_REUSEPORT sharding requires linux")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conns, err := ListenUDPReusePort(ctx, "127.0.0.1:0", 2)
	if err != nil {
		t.Fatalf("ListenUDPReusePort: %v", err)
	}
	if len(conns) != 2 {
		t.Fatalf("got %d conns, want 2", len(conns))
	}
	if a, b := conns[0].LocalAddr().String(), conns[1].LocalAddr().String(); a != b {
		t.Fatalf("shards bound to different addresses: %s vs %s", a, b)
	}
	srv := NewServer(Config{Handler: bigAnswerHandler(1, "shard")})
	for _, pc := range conns {
		go srv.ServeUDP(ctx, pc)
	}

	// The kernel hashes by 4-tuple, so distinct client sockets spread over
	// the shards; all must be answered no matter which shard got them.
	qctx, qcancel := context.WithTimeout(ctx, 10*time.Second)
	defer qcancel()
	for i := 0; i < 8; i++ {
		resp, err := QueryUDP(qctx, conns[0].LocalAddr().String(),
			dnswire.NewQuery(uint16(i+1), dnswire.MustName("shard.example."), dnswire.TypeA))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(resp.Answer) != 1 {
			t.Fatalf("query %d: answers = %d, want 1", i, len(resp.Answer))
		}
	}
}

// failingUpstream answers every question SERVFAIL with the diagnosis a
// validating resolver attaches to an expired signature, so a frontend over
// it caches the failure and re-serves it with EDE 13.
var failingUpstream = upstreamFunc(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
	r := dnswire.NewQuery(0, qname, dnswire.TypeA).Reply()
	r.RCode = dnswire.RCodeServFail
	r.AddEDE(uint16(ede.CodeSignatureExpired), "RRSIG for "+qname.String()+" A expired")
	return r, nil
})

// mixedUpstream fails fail.example. as failingUpstream does and answers
// every other name with one A record, TTL 300.
var mixedUpstream = upstreamFunc(func(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	if qname == dnswire.MustName("fail.example.") {
		return failingUpstream(ctx, qname, qtype)
	}
	r := dnswire.NewQuery(0, qname, dnswire.TypeA).Reply()
	r.Answer = []dnswire.RR{{Name: qname, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.A{Addr: mustAddr("192.0.2.1")}}}
	return r, nil
})

// TestCachedErrorWireParity: a cached SERVFAIL + EDE and a positive answer
// are answered from the wire cache over UDP, TCP, DoT, DoH GET and DoH POST,
// byte-identical to what a DisableWire server over the same frontend
// answers (on DoH, with the same Cache-Control), and each answer counts as
// a wire serve. The frozen clock keeps the EDE 13 countdown on one second.
func TestCachedErrorWireParity(t *testing.T) {
	now := time.Unix(int64(testbed.Now), 0)
	fe := frontend.New(mixedUpstream, frontend.Config{Now: func() time.Time { return now }})

	cert, err := SelfSignedCert("127.0.0.1")
	if err != nil {
		t.Fatalf("generating certificate: %v", err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert.Leaf)
	clientTLS := &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	const dohGet, dohPost = "doh-get", "doh-post"
	doors := []string{TransportUDP, TransportTCP, TransportDoT, dohGet, dohPost}
	// door is one server with a client connection on each transport.
	type door struct {
		srv   *Server
		conns map[string]net.Conn
		doh   string // the DoH endpoint, plain HTTP
	}
	open := func(disableWire bool) door {
		d := door{srv: NewServer(Config{Handler: fe, DisableWire: disableWire, TCPKeepalive: 7 * time.Second}), conns: map[string]net.Conn{}}
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		go d.srv.ServeUDP(ctx, pc)
		d.conns[TransportUDP] = dialUDP(t, pc.LocalAddr().String())
		for _, tr := range []string{TransportTCP, TransportDoT, TransportDoH} {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			var conn net.Conn
			switch tr {
			case TransportTCP:
				go d.srv.ServeTCP(ctx, l)
				conn, err = net.Dial("tcp", l.Addr().String())
			case TransportDoT:
				go d.srv.ServeDoT(ctx, l, &tls.Config{Certificates: []tls.Certificate{cert}})
				conn, err = tls.Dial("tcp", l.Addr().String(), clientTLS)
			case TransportDoH:
				go d.srv.ServeDoH(ctx, l, nil)
				d.doh = "http://" + l.Addr().String() + DoHPath
				continue
			}
			if err != nil {
				t.Fatalf("dial %s: %v", tr, err)
			}
			t.Cleanup(func() { conn.Close() })
			d.conns[tr] = conn
		}
		for _, c := range d.conns {
			c.SetDeadline(time.Now().Add(time.Minute))
		}
		return d
	}
	// exchange asks q at one door and returns the DNS message it got back,
	// and on DoH the Cache-Control header.
	exchange := func(d door, tr string, q *dnswire.Message) ([]byte, string) {
		t.Helper()
		query := framed(t, q)
		switch tr {
		case dohGet, dohPost:
			var resp *http.Response
			var err error
			if tr == dohGet {
				resp, err = http.Get(d.doh + "?dns=" + base64.RawURLEncoding.EncodeToString(query[2:]))
			} else {
				resp, err = http.Post(d.doh, dohContentType, bytes.NewReader(query[2:]))
			}
			if err != nil {
				t.Fatalf("%s: %v", tr, err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %s, %v", tr, resp.Status, err)
			}
			return body, resp.Header.Get("Cache-Control")
		case TransportUDP:
			conn := d.conns[tr]
			if _, err := conn.Write(query[2:]); err != nil {
				t.Fatalf("udp write: %v", err)
			}
			buf := make([]byte, maxUDPPayload)
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatalf("udp read: %v", err)
			}
			return buf[:n], ""
		}
		conn := d.conns[tr]
		if _, err := conn.Write(query); err != nil {
			t.Fatalf("%s write: %v", tr, err)
		}
		resp, err := readRawFrame(conn)
		if err != nil {
			t.Fatalf("%s read: %v", tr, err)
		}
		return resp[2:], ""
	}
	serves := func(d door, tr string) uint64 {
		if tr == dohGet || tr == dohPost {
			tr = TransportDoH
		}
		return d.srv.m.wireServes[tr].Load()
	}

	slow, wired := open(true), open(false)
	for _, name := range []string{"fail.example.", "ok.example."} {
		for _, edns := range []bool{false, true} {
			q := dnswire.NewQuery(1, dnswire.MustName(name), dnswire.TypeA)
			if !edns {
				q.OPT = nil
			}
			// The miss, then the first hit, which captures a cached error.
			for i := 0; i < 2; i++ {
				exchange(slow, TransportUDP, q)
			}
			for _, tr := range doors {
				before := serves(wired, tr)
				want, wantCC := exchange(slow, tr, q)
				got, gotCC := exchange(wired, tr, q)
				if !bytes.Equal(got, want) {
					t.Errorf("%s %s edns=%t: wire-served answer differs from the parsed path\n slow: %x\n wire: %x", tr, name, edns, want, got)
				}
				if gotCC != wantCC {
					t.Errorf("%s %s edns=%t: Cache-Control %q, the parsed path's %q", tr, name, edns, gotCC, wantCC)
				}
				if n := serves(wired, tr) - before; n != 1 {
					t.Errorf("%s %s edns=%t: wire serves moved by %d, want 1", tr, name, edns, n)
				}
				m, err := dnswire.Unpack(got)
				if err != nil {
					t.Fatalf("%s: unpacking the answer: %v", tr, err)
				}
				if name == "ok.example." {
					if m.RCode != dnswire.RCodeNoError || len(m.Answer) != 1 {
						t.Errorf("%s edns=%t: %s with %d answers, want NOERROR with 1", tr, edns, m.RCode, len(m.Answer))
					}
					if tr == dohGet && gotCC != "max-age=300" {
						t.Errorf("doh edns=%t: Cache-Control %q, want max-age=300", edns, gotCC)
					}
					continue
				}
				if m.RCode != dnswire.RCodeServFail {
					t.Errorf("%s edns=%t: RCODE %s, want SERVFAIL", tr, edns, m.RCode)
				}
				if codes := m.EDECodes(); edns && len(codes) != 2 {
					t.Errorf("%s: EDEs %v, want the expired signature's and EDE 13", tr, codes)
				}
				if tr == dohGet && gotCC != "max-age=0" {
					t.Errorf("doh edns=%t: Cache-Control %q on a cached error, want max-age=0", edns, gotCC)
				}
			}
		}
	}
	for _, tr := range []string{TransportUDP, TransportTCP, TransportDoT, TransportDoH} {
		if n := slow.srv.m.wireServes[tr].Load(); n != 0 {
			t.Errorf("%s: DisableWire server made %d wire serves", tr, n)
		}
	}
}
