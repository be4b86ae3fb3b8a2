package transport

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/authserver"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/testbed"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// frontDoor is one handler served over all four transports on loopback —
// for startFrontDoor, the paper's testbed behind a real resolver and caching
// frontend.
type frontDoor struct {
	tb      *testbed.Testbed // set by startFrontDoor only
	udpAddr string
	tcpAddr string
	dotAddr string
	dohURL  string
	tlsConf *tls.Config // client-side, trusting the self-signed cert
}

// startFrontDoor boots every listener and registers shutdown with t.
func startFrontDoor(t *testing.T) *frontDoor {
	t.Helper()
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("building testbed: %v", err)
	}
	r := tb.NewResolver(resolver.ProfileCloudflare())
	fe := frontend.New(forwarder.ResolverUpstream{R: r}, frontend.Config{
		// The testbed's frozen clock keeps TTLs from aging between the
		// per-transport probes, so responses can be compared exactly.
		Now: tb.Clock,
	})
	fd := startDoors(t, Config{Handler: fe})
	fd.tb = tb
	return fd
}

// startDoors serves cfg over all four transports on loopback and registers
// shutdown with t.
func startDoors(t *testing.T, cfg Config) *frontDoor {
	t.Helper()
	srv := NewServer(cfg)

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	uconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("udp listen: %v", err)
	}
	tcpL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("tcp listen: %v", err)
	}
	dotL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("dot listen: %v", err)
	}
	dohL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("doh listen: %v", err)
	}

	cert, err := SelfSignedCert("127.0.0.1")
	if err != nil {
		t.Fatalf("generating certificate: %v", err)
	}
	serverTLS := &tls.Config{Certificates: []tls.Certificate{cert}}
	pool := x509.NewCertPool()
	pool.AddCert(cert.Leaf)
	clientTLS := &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"}

	go srv.ServeUDP(ctx, uconn)
	go srv.ServeTCP(ctx, tcpL)
	go srv.ServeDoT(ctx, dotL, serverTLS)
	go srv.ServeDoH(ctx, dohL, serverTLS.Clone())

	return &frontDoor{
		udpAddr: uconn.LocalAddr().String(),
		tcpAddr: tcpL.Addr().String(),
		dotAddr: dotL.Addr().String(),
		dohURL:  "https://" + dohL.Addr().String() + DoHPath,
		tlsConf: clientTLS,
	}
}

func (fd *frontDoor) dohClient() *http.Client {
	return &http.Client{Transport: &http.Transport{TLSClientConfig: fd.tlsConf.Clone()}}
}

// observation is the wire-visible outcome the parity invariant compares:
// everything a troubleshooting client sees except the query ID and TTL
// aging.
type observation struct {
	RCode     dnswire.RCode
	Truncated bool
	AD        bool
	CD        bool
	Answers   []string
	EDEs      []dnswire.EDEOption
}

func observe(m *dnswire.Message) observation {
	o := observation{
		RCode:     m.RCode,
		Truncated: m.Truncated,
		AD:        m.AuthenticData,
		CD:        m.CheckingDisabled,
		EDEs:      m.EDEs(),
	}
	for _, rr := range m.Answer {
		o.Answers = append(o.Answers, fmt.Sprintf("%s %d %s %s", rr.Name, rr.TTL, rr.Type(), rr.Data))
	}
	return o
}

// TestTransportParity is the headline conformance suite: every testbed
// case, with and without the CD bit, through all four transports (DoH via
// both the GET and POST forms), asserting the wire-visible RCODE, EDE
// codes and EXTRA-TEXT are identical everywhere.
func TestTransportParity(t *testing.T) {
	fd := startFrontDoor(t)
	client := fd.dohClient()
	var id uint16 = 100

	type probe struct {
		name  string
		query func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error)
	}
	probes := []probe{
		{"tcp", func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			return QueryTCP(ctx, fd.tcpAddr, q)
		}},
		{"dot", func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			return QueryDoT(ctx, fd.dotAddr, fd.tlsConf.Clone(), q)
		}},
		{"doh-get", func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			return QueryDoH(ctx, client, fd.dohURL, q, false)
		}},
		{"doh-post", func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			return QueryDoH(ctx, client, fd.dohURL, q, true)
		}},
	}

	cdFlips := 0
	for _, c := range fd.tb.Cases {
		var noCD, withCD *observation
		for _, cd := range []bool{false, true} {
			name := c.Label
			if cd {
				name += "+cd"
			}
			t.Run(name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()

				mkQuery := func() *dnswire.Message {
					id++
					q := dnswire.NewQuery(id, c.Query, dnswire.TypeA)
					q.CheckingDisabled = cd
					return q
				}

				// Warm the frontend cache so every compared probe is a
				// cache hit: the first resolution legitimately differs
				// from later ones (the error cache appends EDE 13 on
				// hits), and that difference is cache state, not
				// transport behaviour.
				if _, err := QueryUDP(ctx, fd.udpAddr, mkQuery()); err != nil {
					t.Fatalf("warmup query: %v", err)
				}

				// UDP is the reference transport every other one must match.
				ref, err := QueryUDP(ctx, fd.udpAddr, mkQuery())
				if err != nil {
					t.Fatalf("udp query: %v", err)
				}
				want := observe(ref)
				if want.CD != cd {
					t.Errorf("udp response CD = %t, want %t (RFC 1035: CD echoes the query)", want.CD, cd)
				}

				for _, p := range probes {
					got, err := p.query(ctx, mkQuery())
					if err != nil {
						t.Fatalf("%s query: %v", p.name, err)
					}
					if o := observe(got); !reflect.DeepEqual(o, want) {
						t.Errorf("%s disagrees with udp:\n  udp: %+v\n  %s: %+v", p.name, want, p.name, o)
					}
				}

				o := want
				if cd {
					withCD = &o
				} else {
					noCD = &o
				}
			})
			if cd && noCD != nil && withCD != nil {
				if noCD.RCode != withCD.RCode {
					// RFC 4035 §3.2.2: the only divergence CD may cause is
					// serving the bogus data instead of SERVFAIL — NOERROR
					// for answers, NXDOMAIN for unvalidatable denials — and
					// never the other direction. The EDE diagnostics must
					// survive the flip.
					okFlip := noCD.RCode == dnswire.RCodeServFail &&
						(withCD.RCode == dnswire.RCodeNoError || withCD.RCode == dnswire.RCodeNXDomain)
					if !okFlip {
						t.Errorf("%s: CD changed RCODE %s -> %s; only SERVFAIL -> NOERROR/NXDOMAIN is legal",
							c.Label, noCD.RCode, withCD.RCode)
					}
					if len(withCD.EDEs) == 0 {
						t.Errorf("%s: CD response dropped its EDE diagnostics", c.Label)
					}
					cdFlips++
				}
			}
		}
	}
	if cdFlips == 0 {
		t.Error("no testbed case flipped SERVFAIL -> NOERROR under CD; the bogus groups should have")
	}
}

// TestParityObservationsNonEmpty guards the suite itself: at least one
// case must produce EDEs at all, or the parity assertions are vacuous.
func TestParityObservationsNonEmpty(t *testing.T) {
	fd := startFrontDoor(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	withEDE := 0
	for _, c := range fd.tb.Cases {
		resp, err := QueryTCP(ctx, fd.tcpAddr, dnswire.NewQuery(7, c.Query, dnswire.TypeA))
		if err != nil {
			t.Fatalf("%s: %v", c.Label, err)
		}
		if len(resp.EDEs()) > 0 {
			withEDE++
		}
	}
	if withEDE == 0 {
		t.Fatal("no testbed case produced an EDE over the front door")
	}
}

// authZone is a small signed zone with one RRset too large for a 512-byte
// datagram.
func authZone(t *testing.T) *zone.Zone {
	t.Helper()
	z := zone.New(dnswire.MustName("example.test"), 300)
	z.AddNS(dnswire.MustName("ns1.example.test"), mustAddr("198.18.5.1"))
	z.AddAddress(dnswire.MustName("example.test"), mustAddr("198.18.5.10"))
	z.AddAddress(dnswire.MustName("www.example.test"), mustAddr("198.18.5.11"))
	big := dnswire.MustName("big.example.test")
	var rrs []dnswire.RR
	for i := 0; i < 40; i++ {
		rrs = append(rrs, dnswire.RR{Name: big, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.TXT{Strings: []string{string(make([]byte, 80))}}})
	}
	z.SetRRset(big, dnswire.TypeTXT, rrs)
	if err := z.Sign(zone.SignOptions{Inception: 1700000000, Expiration: 1800000000}); err != nil {
		t.Fatal(err)
	}
	return z
}

// TestAuthServerIdenticalOnEveryDoor puts an authoritative server, not the
// caching frontend, behind the four doors: the bytes of a signed answer, an
// NSEC3 denial and a REFUSED must not depend on the door, and an RRset too
// large for the client's datagram buffer arrives TC=1 over UDP and whole
// over TCP — the client-side fallback of RFC 7766.
func TestAuthServerIdenticalOnEveryDoor(t *testing.T) {
	fd := startDoors(t, Config{Handler: authserver.New(authZone(t))})
	client := fd.dohClient()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for i, c := range []struct {
		name  string
		rcode dnswire.RCode
	}{
		{"www.example.test", dnswire.RCodeNoError},
		{"missing.example.test", dnswire.RCodeNXDomain},
		{"elsewhere.invalid", dnswire.RCodeRefused},
	} {
		mkQuery := func() *dnswire.Message {
			return dnswire.NewQuery(uint16(200+i), dnswire.MustName(c.name), dnswire.TypeA)
		}
		ref, err := QueryUDP(ctx, fd.udpAddr, mkQuery())
		if err != nil {
			t.Fatalf("%s over udp: %v", c.name, err)
		}
		if ref.RCode != c.rcode {
			t.Errorf("%s over udp: rcode %s, want %s", c.name, ref.RCode, c.rcode)
		}
		want, err := ref.Pack()
		if err != nil {
			t.Fatal(err)
		}
		doors := map[string]func() (*dnswire.Message, error){
			"tcp":      func() (*dnswire.Message, error) { return QueryTCP(ctx, fd.tcpAddr, mkQuery()) },
			"dot":      func() (*dnswire.Message, error) { return QueryDoT(ctx, fd.dotAddr, fd.tlsConf.Clone(), mkQuery()) },
			"doh-get":  func() (*dnswire.Message, error) { return QueryDoH(ctx, client, fd.dohURL, mkQuery(), false) },
			"doh-post": func() (*dnswire.Message, error) { return QueryDoH(ctx, client, fd.dohURL, mkQuery(), true) },
		}
		for door, query := range doors {
			resp, err := query()
			if err != nil {
				t.Fatalf("%s over %s: %v", c.name, door, err)
			}
			got, err := resp.Pack()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s answer differs from udp:\n  udp: %x\n  %s: %x", c.name, door, want, door, got)
			}
		}
	}

	q := dnswire.NewQuery(210, dnswire.MustName("big.example.test"), dnswire.TypeTXT)
	q.OPT.UDPSize = 512
	resp, err := QueryUDP(ctx, fd.udpAddr, q)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated || len(resp.Answer) != 0 {
		t.Errorf("oversized RRset over udp: tc=%t answers=%d, want TC=1 and no partial data", resp.Truncated, len(resp.Answer))
	}
	resp, err = QueryTCP(ctx, fd.tcpAddr, q)
	if err != nil {
		t.Fatal(err)
	}
	txts := 0
	for _, rr := range resp.Answer {
		if rr.Type() == dnswire.TypeTXT {
			txts++
		}
	}
	if resp.Truncated || txts != 40 {
		t.Errorf("same question over tcp: tc=%t TXT records=%d, want the whole RRset of 40", resp.Truncated, txts)
	}
}

// TestEDNSConformance holds every door to the RFCs rather than to the
// server's own slow path, with the wire cache on and off; each question is
// asked twice, so a second ask could take the wire path. The expectations
// are the RFCs':
//   - RFC 6891 §6.1.3: a query for an EDNS version the server does not
//     implement gets BADVERS in an OPT of the version it does (0), and no
//     answer. Nothing is resolved or cached for it: the upstream is never
//     asked, and version 0 of the same question afterwards resolves afresh.
//   - RFC 1035 §4.1.1: QR=1 marks a response, not a query. The UDP door
//     drops it; TCP and DoT answer FORMERR, DoH HTTP 400 (errResponse).
func TestEDNSConformance(t *testing.T) {
	var asked atomic.Int64
	up := upstreamFunc(func(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
		asked.Add(1)
		return mixedUpstream(ctx, qname, qtype)
	})
	now := time.Unix(int64(testbed.Now), 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const badvers, formerr, dropped = "BADVERS", "FORMERR", "dropped"
	rows := []struct {
		name string
		edit func(*dnswire.Message)
		want string // an rcode, or dropped: no answer
	}{
		{"edns", func(*dnswire.Message) {}, "NOERROR"},
		{"edns1", func(q *dnswire.Message) { q.OPT.Version = 1; q.OPT.DO = false }, badvers},
		{"edns1-do", func(q *dnswire.Message) { q.OPT.Version = 1 }, badvers},
		{"edns255", func(q *dnswire.Message) { q.OPT.Version = 255 }, badvers},
		{"edns1-opt", func(q *dnswire.Message) {
			q.OPT.Version = 1
			q.OPT.Options = []dnswire.Option{dnswire.RawOption{OptCode: 65001, Data: []byte{1, 2, 3}}}
		}, badvers},
		{"qr", func(q *dnswire.Message) { q.Response = true }, formerr},
	}
	for _, wire := range []bool{true, false} {
		fd := startDoors(t, Config{
			Handler:     frontend.New(up, frontend.Config{Now: func() time.Time { return now }}),
			DisableWire: !wire,
		})
		client := fd.dohClient()
		doors := []struct {
			name  string
			query func(*dnswire.Message) (*dnswire.Message, error)
		}{
			{TransportUDP, func(q *dnswire.Message) (*dnswire.Message, error) { return udpExchange(ctx, fd.udpAddr, q) }},
			{TransportTCP, func(q *dnswire.Message) (*dnswire.Message, error) { return QueryTCP(ctx, fd.tcpAddr, q) }},
			{TransportDoT, func(q *dnswire.Message) (*dnswire.Message, error) {
				return QueryDoT(ctx, fd.dotAddr, fd.tlsConf.Clone(), q)
			}},
			{TransportDoH, func(q *dnswire.Message) (*dnswire.Message, error) {
				return QueryDoH(ctx, client, fd.dohURL, q, false)
			}},
		}
		for _, door := range doors {
			for _, row := range rows {
				t.Run(fmt.Sprintf("wire=%t/%s/%s", wire, door.name, row.name), func(t *testing.T) {
					name := dnswire.MustName(row.name + "." + door.name + ".example.")
					want := row.want
					switch {
					case want == formerr && door.name == TransportUDP:
						want = dropped
					case want == formerr && door.name == TransportDoH:
						want = "HTTP 400"
					}
					before := asked.Load()
					for ask := uint16(1); ask <= 2; ask++ {
						q := dnswire.NewQuery(ask, name, dnswire.TypeA)
						row.edit(q)
						resp, err := door.query(q)
						if got := outcome(resp, err); got != want {
							t.Fatalf("ask %d: %s, want %s", ask, got, want)
						}
						if resp == nil {
							continue
						}
						if resp.ID != q.ID || len(resp.Answer) != 0 && want != "NOERROR" {
							t.Errorf("ask %d: id %d with %d answers, want id %d and none", ask, resp.ID, len(resp.Answer), q.ID)
						}
						if want == badvers && (resp.OPT == nil || resp.OPT.Version != 0) {
							t.Errorf("ask %d: BADVERS carries OPT %v, want version 0", ask, resp.OPT)
						}
					}
					if want == "NOERROR" {
						return
					}
					if n := asked.Load() - before; n != 0 {
						t.Errorf("the upstream was asked %d times", n)
					}
					if resp, err := door.query(dnswire.NewQuery(3, name, dnswire.TypeA)); err != nil || resp.RCode != dnswire.RCodeNoError || asked.Load() != before+1 {
						t.Errorf("version 0 afterwards: %s after %d upstream asks, want NOERROR after 1", outcome(resp, err), asked.Load()-before)
					}
				})
			}
		}
	}
}

// outcome names what a door answered: its rcode, dropped for no answer, or
// HTTP 400.
func outcome(resp *dnswire.Message, err error) string {
	var nerr net.Error
	switch {
	case err == nil:
		return resp.RCode.String()
	case errors.As(err, &nerr) && nerr.Timeout():
		return "dropped"
	case strings.Contains(err.Error(), "400 Bad Request"):
		return "HTTP 400"
	}
	return err.Error()
}

// udpExchange is QueryUDP that waits only a short while for the answer to
// a response (QR=1), which the door should drop, so that a drop reads as a
// timeout rather than holding the test.
func udpExchange(ctx context.Context, addr string, q *dnswire.Message) (*dnswire.Message, error) {
	if q.Response {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 250*time.Millisecond)
		defer cancel()
	}
	return QueryUDP(ctx, addr, q)
}
