package transport

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
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
// asked twice, so a second ask could take the wire path. The rows are the
// server-side cases of EDNS compliance testing (plain, edns, edns@512, do,
// ednsopt, ednsflags, optlist, zflag, edns1, edns1opt, the opcodes) plus QR.
// The expectations are the RFCs':
//   - RFC 6891 §6.1.1 and §7: a reply carries an OPT exactly when the query
//     did; §6.1.2: options the server does not implement are ignored, so
//     the reply carries none but EDE (RFC 8914); §6.1.4: EDNS flags other
//     than DO are zero in a reply; §6.2.5: a UDP reply fits the payload
//     size the query advertises (512 without an OPT). RFC 3225 §3: DO is
//     copied from the query.
//   - RFC 6891 §6.1.3: a query for an EDNS version the server does not
//     implement gets BADVERS in an OPT of the version it does (0), and no
//     answer. Nothing is resolved or cached for it: the upstream is never
//     asked, and version 0 of the same question afterwards resolves afresh.
//   - RFC 1035 §4.1.1: the header Z bit is zero in every reply. An opcode
//     other than QUERY (IQUERY, NOTIFY, UPDATE) is a kind of query this
//     server does not support: NOTIMP, with nothing resolved. QR=1 marks a
//     response, not a query: the UDP door drops it; TCP and DoT answer
//     FORMERR, DoH HTTP 400 (errResponse).
func TestEDNSConformance(t *testing.T) {
	var asked atomic.Int64
	up := upstreamFunc(func(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
		asked.Add(1)
		return mixedUpstream(ctx, qname, qtype)
	})
	now := time.Unix(int64(testbed.Now), 0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const badvers, formerr, notimp, dropped = "BADVERS", "FORMERR", "NOTIMP", "dropped"
	rows := []struct {
		name string
		edit func(*dnswire.Message)
		// mangle sets what a Message cannot carry: the header Z bit and
		// undefined EDNS flags.
		mangle func([]byte)
		want   string // an rcode, or dropped: no answer
	}{
		{"plain", func(q *dnswire.Message) { q.OPT = nil }, nil, "NOERROR"},
		{"edns", func(q *dnswire.Message) { q.OPT.DO = false }, nil, "NOERROR"},
		{"edns@512", func(q *dnswire.Message) { q.OPT.DO = false; q.OPT.UDPSize = 512 }, nil, "NOERROR"},
		{"do", func(q *dnswire.Message) { q.OPT.DO = true }, nil, "NOERROR"},
		{"ednsopt", func(q *dnswire.Message) {
			q.OPT.DO = false
			q.OPT.Options = []dnswire.Option{dnswire.RawOption{OptCode: 100}}
		}, nil, "NOERROR"},
		{"ednsflags", func(q *dnswire.Message) { q.OPT.DO = false }, func(b []byte) {
			off, _ := dnswire.TrailingOPT(b)
			b[off+8] |= 0x80 // EDNS flags 0x0080, undefined
		}, "NOERROR"},
		{"optlist", func(q *dnswire.Message) {
			q.OPT.DO = false
			q.OPT.Options = []dnswire.Option{
				dnswire.RawOption{OptCode: dnswire.OptionCodeNSID},
				dnswire.RawOption{OptCode: 8, Data: []byte{0, 1, 0, 0}}, // client subnet 0.0.0.0/0
				dnswire.RawOption{OptCode: 9},                           // expire
				dnswire.RawOption{OptCode: dnswire.OptionCodeCookie, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			}
		}, nil, "NOERROR"},
		{"zflag", func(q *dnswire.Message) { q.OPT.DO = false }, func(b []byte) { b[3] |= 0x40 }, "NOERROR"},
		{"edns1", func(q *dnswire.Message) { q.OPT.Version = 1; q.OPT.DO = false }, nil, badvers},
		{"edns1-do", func(q *dnswire.Message) { q.OPT.Version = 1 }, nil, badvers},
		{"edns255", func(q *dnswire.Message) { q.OPT.Version = 255 }, nil, badvers},
		{"edns1-opt", func(q *dnswire.Message) {
			q.OPT.Version = 1
			q.OPT.Options = []dnswire.Option{dnswire.RawOption{OptCode: 65001, Data: []byte{1, 2, 3}}}
		}, nil, badvers},
		{"iquery", func(q *dnswire.Message) { q.Opcode = 1 }, nil, notimp},
		{"notify", func(q *dnswire.Message) { q.Opcode = dnswire.OpcodeNotify }, nil, notimp},
		{"update", func(q *dnswire.Message) { q.Opcode = dnswire.OpcodeUpdate }, nil, notimp},
		{"qr", func(q *dnswire.Message) { q.Response = true }, nil, formerr},
	}
	for _, wire := range []bool{true, false} {
		fd := startDoors(t, Config{
			Handler:     frontend.New(up, frontend.Config{Now: func() time.Time { return now }}),
			DisableWire: !wire,
		})
		client := fd.dohClient()
		doors := []struct {
			name string
			ask  func([]byte) ([]byte, error)
		}{
			{TransportUDP, func(q []byte) ([]byte, error) { return udpRaw(ctx, fd.udpAddr, q) }},
			{TransportTCP, func(q []byte) ([]byte, error) {
				var d net.Dialer
				return streamRaw(ctx, d.DialContext, fd.tcpAddr, q)
			}},
			{TransportDoT, func(q []byte) ([]byte, error) {
				d := tls.Dialer{Config: fd.tlsConf.Clone()}
				return streamRaw(ctx, d.DialContext, fd.dotAddr, q)
			}},
			{TransportDoH, func(q []byte) ([]byte, error) { return dohRaw(ctx, client, fd.dohURL, q) }},
		}
		for _, door := range doors {
			for _, row := range rows {
				t.Run(fmt.Sprintf("wire=%t/%s/%s", wire, door.name, row.name), func(t *testing.T) {
					name := dnswire.MustName(strings.ReplaceAll(row.name, "@", "-") + "." + door.name + ".example.")
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
						b, err := q.Pack()
						if err != nil {
							t.Fatal(err)
						}
						if row.mangle != nil {
							row.mangle(b)
						}
						raw, err := door.ask(b)
						var resp *dnswire.Message
						if err == nil {
							resp, err = dnswire.Unpack(raw)
						}
						if got := outcome(resp, err); got != want {
							t.Fatalf("ask %d: %s, want %s", ask, got, want)
						}
						if resp == nil {
							continue
						}
						if resp.ID != q.ID || (len(resp.Answer) > 0) != (want == "NOERROR") {
							t.Errorf("ask %d: id %d with %d answers, want id %d and answers only on NOERROR", ask, resp.ID, len(resp.Answer), q.ID)
						}
						if raw[3]&0x40 != 0 {
							t.Errorf("ask %d: the reply's header Z bit is set", ask)
						}
						if want == formerr {
							continue
						}
						limit := 512
						if q.OPT != nil {
							limit = max(limit, int(q.OPT.UDPSize))
						}
						if door.name == TransportUDP && len(raw) > limit {
							t.Errorf("ask %d: a %d-byte UDP reply to a query advertising %d", ask, len(raw), limit)
						}
						if (resp.OPT != nil) != (q.OPT != nil) {
							t.Fatalf("ask %d: reply OPT %v to query OPT %v", ask, resp.OPT, q.OPT)
						}
						if q.OPT == nil {
							continue
						}
						if resp.OPT.Version != 0 || resp.OPT.DO != q.OPT.DO {
							t.Errorf("ask %d: reply OPT version %d DO %t, want version 0 and the query's DO %t", ask, resp.OPT.Version, resp.OPT.DO, q.OPT.DO)
						}
						if off, ok := dnswire.TrailingOPT(raw); !ok || raw[off+7]&0x7f != 0 || raw[off+8] != 0 {
							t.Errorf("ask %d: reply EDNS flags other than DO are set (OPT at %d, %t)", ask, off, ok)
						}
						for _, o := range resp.OPT.Options {
							if o.Code() != dnswire.OptionCodeEDE {
								t.Errorf("ask %d: the reply carries option %v", ask, o)
							}
						}
					}
					if want == "NOERROR" {
						return
					}
					if n := asked.Load() - before; n != 0 {
						t.Errorf("the upstream was asked %d times", n)
					}
					b, _ := dnswire.NewQuery(3, name, dnswire.TypeA).Pack()
					raw, err := door.ask(b)
					var resp *dnswire.Message
					if err == nil {
						resp, err = dnswire.Unpack(raw)
					}
					if err != nil || resp.RCode != dnswire.RCodeNoError || asked.Load() != before+1 {
						t.Errorf("version 0 afterwards: %s after %d upstream asks, want NOERROR after 1", outcome(resp, err), asked.Load()-before)
					}
				})
			}
		}
	}
}

// udpRaw sends query bytes over UDP and returns the datagram that comes
// back. It waits only a short while for the answer to a response (QR=1),
// which the door should drop, so that a drop reads as a timeout rather than
// holding the test.
func udpRaw(ctx context.Context, addr string, query []byte) ([]byte, error) {
	if isResponse(query) {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 250*time.Millisecond)
		defer cancel()
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	dl, _ := ctx.Deadline()
	conn.SetDeadline(dl)
	if _, err := conn.Write(query); err != nil {
		return nil, err
	}
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	return buf[:n], err
}

// streamRaw sends query bytes as one frame over a new connection (TCP, or
// TLS for DoT) and returns the frame that comes back.
func streamRaw(ctx context.Context, dial func(context.Context, string, string) (net.Conn, error), addr string, query []byte) ([]byte, error) {
	conn, err := dial(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	dl, _ := ctx.Deadline()
	conn.SetDeadline(dl)
	if _, err := conn.Write(append([]byte{byte(len(query) >> 8), byte(len(query))}, query...)); err != nil {
		return nil, err
	}
	frame, err := readRawFrame(conn)
	if err != nil {
		return nil, err
	}
	return frame[2:], nil
}

// dohRaw sends query bytes to a DoH endpoint in the GET form and returns the
// body of a 200 answer, or an error naming the HTTP status.
func dohRaw(ctx context.Context, client *http.Client, endpoint string, query []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint+"?dns="+base64.RawURLEncoding.EncodeToString(query), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", dohContentType)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("DoH endpoint returned %s", resp.Status)
	}
	return body, err
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
