package transport

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// stubWire is a wire cache that holds every name except the declined ones:
// a hit is the bare reply to the query, packed into dst.
type stubWire struct{ decline map[dnswire.Name]bool }

func (w stubWire) ServeWire(q dnswire.WireQuery, _ int, dst []byte) ([]byte, bool) {
	if w.decline[q.Name] {
		return nil, false
	}
	m := dnswire.NewQuery(q.ID, q.Name, q.Type)
	if !q.HasEDNS {
		m.OPT = nil
	}
	r := m.Reply()
	r.RecursionAvailable = true
	out, err := r.AppendPack(dst)
	return out, err == nil
}

// countingListener counts the Write calls the server makes on the
// connections it accepts, and lets a test see each Read as it returns.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
	onRead func(n int) // may be nil
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l countingListener
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.l.onRead != nil {
		c.l.onRead(n)
	}
	return n, err
}

// serveOn runs srv.ServeTCP on a fresh loopback listener passed through
// wrap, until the test ends or stop is called.
func serveOn(t *testing.T, srv *Server, wrap func(net.Listener) net.Listener) (addr string, stop context.CancelFunc, served <-chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeTCP(ctx, wrap(l)) }()
	t.Cleanup(cancel)
	return l.Addr().String(), cancel, done
}

func dialTCP(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

func framed(t testing.TB, m *dnswire.Message) []byte {
	t.Helper()
	b, err := m.AppendStream(nil)
	if err != nil {
		t.Fatalf("framing: %v", err)
	}
	return b
}

// readRawFrame reads one length-prefixed frame and returns it whole, prefix
// included.
func readRawFrame(r io.Reader) ([]byte, error) {
	var l [2]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return nil, err
	}
	b := make([]byte, 2+int(binary.BigEndian.Uint16(l[:])))
	copy(b, l[:])
	_, err := io.ReadFull(r, b[2:])
	return b, err
}

func hitQuery(id uint16) *dnswire.Message {
	return dnswire.NewQuery(id, dnswire.MustName("hit.example"), dnswire.TypeA)
}

// TestStreamWireEquivalence is the stream twin of the frontend's byte
// identity gate: for every testbed case × {¬cd, cd} × {plain, EDNS} ×
// keepalive {off, on}, a server with the wire fast path and one with
// DisableWire — sharing one frontend, so one cache state — put the same
// framed bytes on a TCP and on a DoT connection.
func TestStreamWireEquivalence(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("building testbed: %v", err)
	}
	r := tb.NewResolver(resolver.ProfileCloudflare())
	// The frozen testbed clock keeps TTLs and the EDE 13 countdown still.
	fe := frontend.New(forwarder.ResolverUpstream{R: r}, frontend.Config{Now: tb.Clock})

	cert, err := SelfSignedCert("127.0.0.1")
	if err != nil {
		t.Fatalf("generating certificate: %v", err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert.Leaf)
	clientTLS := &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	// door is one server's pair of client connections.
	type door struct {
		srv      *Server
		tcp, dot net.Conn
	}
	open := func(disableWire bool, keepalive time.Duration) door {
		d := door{srv: NewServer(Config{Handler: fe, DisableWire: disableWire, TCPKeepalive: keepalive})}
		for _, transport := range []string{TransportTCP, TransportDoT} {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			var conn net.Conn
			if transport == TransportTCP {
				go d.srv.ServeTCP(ctx, l)
				conn, err = net.Dial("tcp", l.Addr().String())
				d.tcp = conn
			} else {
				go d.srv.ServeDoT(ctx, l, &tls.Config{Certificates: []tls.Certificate{cert}})
				conn, err = tls.Dial("tcp", l.Addr().String(), clientTLS)
				d.dot = conn
			}
			if err != nil {
				t.Fatalf("dial %s: %v", transport, err)
			}
			t.Cleanup(func() { conn.Close() })
			conn.SetDeadline(time.Now().Add(2 * time.Minute))
		}
		return d
	}
	exchange := func(conn net.Conn, query []byte) []byte {
		t.Helper()
		if _, err := conn.Write(query); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := readRawFrame(conn)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return resp
	}

	const advertised = 7 * time.Second
	doors := map[time.Duration][2]door{} // keepalive → {slow, wire}
	for _, ka := range []time.Duration{0, advertised} {
		doors[ka] = [2]door{open(true, ka), open(false, ka)}
	}

	var id uint16
	compared, kept := 0, 0
	for _, c := range tb.Cases {
		for _, cd := range []bool{false, true} {
			for _, edns := range []bool{false, true} {
				id++
				q := dnswire.NewQuery(id, c.Query, dnswire.TypeA)
				q.CheckingDisabled = cd
				if !edns {
					q.OPT = nil
				}
				query := framed(t, q)
				// The miss that fills the entry and captures the wire image,
				// then two hits: every compared answer is a hit-state one.
				for i := 0; i < 3; i++ {
					exchange(doors[0][0].tcp, query)
				}
				for ka, pair := range doors {
					slow, wire := pair[0], pair[1]
					for _, conns := range [][2]net.Conn{{slow.tcp, wire.tcp}, {slow.dot, wire.dot}} {
						want, got := exchange(conns[0], query), exchange(conns[1], query)
						if !bytes.Equal(got, want) {
							t.Errorf("%s cd=%t edns=%t keepalive=%v: wire server diverges from slow path\n slow: %x\n wire: %x",
								c.Label, cd, edns, ka, want, got)
						}
						compared++
						m, err := dnswire.Unpack(got[2:])
						if err != nil {
							t.Fatalf("%s: unpacking the wire server's answer: %v", c.Label, err)
						}
						units, ok := respKeepalive(m)
						if want := ka > 0 && edns; ok != want || (ok && units != 70) {
							t.Errorf("%s cd=%t edns=%t keepalive=%v: answer advertises %d/%t, want advertised=%t at 70 units",
								c.Label, cd, edns, ka, units, ok, want)
						}
						if ok {
							kept++
						}
					}
				}
			}
		}
	}

	// The comparison means something only if the wire servers really served
	// from the cache, the slow ones never did, and keepalive was patched in.
	for ka, pair := range doors {
		for _, transport := range []string{TransportTCP, TransportDoT} {
			if n := pair[0].srv.m.wireServes[transport].Load(); n != 0 {
				t.Errorf("keepalive=%v %s: DisableWire server made %d wire serves", ka, transport, n)
			}
			if n := pair[1].srv.m.wireServes[transport].Load(); n < uint64(len(tb.Cases)) {
				t.Errorf("keepalive=%v %s: wire server made %d wire serves over %d cases, want most answers off the fast path",
					ka, transport, n, len(tb.Cases))
			}
		}
	}
	if kept == 0 || compared == 0 {
		t.Errorf("compared %d answers, %d with a keepalive option: the suite is vacuous", compared, kept)
	}
}

// TestStreamFlushBeforeBlock: the reader never sits on built answers while
// it waits for the peer — a lone query is answered at once, and a partial
// frame held open behind a run of hits does not delay them.
func TestStreamFlushBeforeBlock(t *testing.T) {
	srv := NewServer(Config{Handler: echoHandler(nil), Wire: stubWire{}})
	addr, _, _ := serveOn(t, srv, func(l net.Listener) net.Listener { return l })
	conn := dialTCP(t, addr)

	if _, err := conn.Write(framed(t, hitQuery(1))); err != nil {
		t.Fatal(err)
	}
	if resp, err := dnswire.ReadStream(conn); err != nil || resp.ID != 1 {
		t.Fatalf("lone query: got %v, %v; want answer 1 without a second query", resp, err)
	}

	// Three hits and the first half of a fourth, in one segment.
	var burst []byte
	for id := uint16(2); id <= 4; id++ {
		burst = append(burst, framed(t, hitQuery(id))...)
	}
	last := framed(t, hitQuery(5))
	if _, err := conn.Write(append(burst, last[:len(last)/2]...)); err != nil {
		t.Fatal(err)
	}
	for id := uint16(2); id <= 4; id++ {
		if resp, err := dnswire.ReadStream(conn); err != nil || resp.ID != id {
			t.Fatalf("behind a held-open partial frame: got %v, %v; want answer %d", resp, err, id)
		}
	}
	if _, err := conn.Write(last[len(last)/2:]); err != nil {
		t.Fatal(err)
	}
	if resp, err := dnswire.ReadStream(conn); err != nil || resp.ID != 5 {
		t.Fatalf("completed frame: got %v, %v; want answer 5", resp, err)
	}
	if got := srv.m.wireServes[TransportTCP].Load(); got != 5 {
		t.Errorf("wire serves = %d, want 5: the test must exercise the inline path", got)
	}
}

// TestStreamCoalescedWrites: 1,000 pipelined hits delivered in one client
// write are all answered, in at most 125 server Write calls.
func TestStreamCoalescedWrites(t *testing.T) {
	const n, maxWrites = 1000, 125
	var writes atomic.Int64
	reg := telemetry.NewRegistry()
	srv := NewServer(Config{Handler: echoHandler(nil), Wire: stubWire{}, Registry: reg})
	addr, _, _ := serveOn(t, srv, func(l net.Listener) net.Listener {
		return countingListener{Listener: l, writes: &writes}
	})
	conn := dialTCP(t, addr)

	var burst []byte
	for i := 0; i < n; i++ {
		burst = append(burst, framed(t, hitQuery(uint16(i)))...)
	}
	sent := make(chan error, 1)
	go func() { _, err := conn.Write(burst); sent <- err }()
	for i := 0; i < n; i++ {
		resp, err := dnswire.ReadStream(conn)
		if err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if resp.ID != uint16(i) {
			t.Fatalf("answer %d has ID %d: inline answers keep arrival order", i, resp.ID)
		}
	}
	if err := <-sent; err != nil {
		t.Fatalf("client write: %v", err)
	}
	flushes, _ := reg.Value("edelab_frontdoor_stream_flushes_total")
	frames, _ := reg.Value("edelab_frontdoor_stream_flush_frames_total")
	t.Logf("%d answers in %d server writes (%.1f per write)", n, writes.Load(), float64(n)/float64(writes.Load()))
	if w := writes.Load(); w > maxWrites {
		t.Errorf("server made %d Write calls for %d answers, want <= %d", w, n, maxWrites)
	}
	if frames != n || flushes != float64(writes.Load()) {
		t.Errorf("flush metrics = %v frames in %v flushes, want %d frames in %d (the counted writes)", frames, flushes, n, writes.Load())
	}
}

// TestStreamDrainFlushes: cancelling the serve context while answers sit in
// the output buffer still delivers every one of them, then closes the
// connection and lets ServeTCP return.
func TestStreamDrainFlushes(t *testing.T) {
	const n = 50 // well inside one read buffer, so one server Read takes them all
	var (
		writes atomic.Int64
		stop   context.CancelFunc
		seen   atomic.Int64
	)
	srv := NewServer(Config{Handler: echoHandler(nil), Wire: stubWire{}})
	ready := make(chan struct{})
	addr, cancel, served := serveOn(t, srv, func(l net.Listener) net.Listener {
		return countingListener{Listener: l, writes: &writes, onRead: func(got int) {
			// The frames are in the reader's buffer and not one is
			// answered yet: cancel now.
			<-ready
			if seen.Add(int64(got)) == int64(got) {
				stop()
			}
		}}
	})
	stop = cancel
	close(ready)
	conn := dialTCP(t, addr)

	query := framed(t, hitQuery(7))
	if _, err := conn.Write(bytes.Repeat(query, n)); err != nil {
		t.Fatal(err)
	}
	answers := 0
	for {
		if _, err := dnswire.ReadStream(conn); err != nil {
			if err != io.EOF {
				t.Fatalf("after %d answers: %v, want a clean close", answers, err)
			}
			break
		}
		answers++
	}
	if want := int(seen.Load()) / len(query); answers != want || answers == 0 {
		t.Errorf("got %d answers for the %d queries the server had read before the drain", answers, want)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeTCP did not return after cancellation")
	}
}

// TestStreamWireHitAllocs is the stream alloc gate: a wire hit over a live
// TCP connection — read, scan, serve, frame, write — costs the process at
// most 2 allocations, so the frame and output buffers are reused. A
// wire-served cached error costs no more than a positive hit.
func TestStreamWireHitAllocs(t *testing.T) {
	fail := dnswire.MustName("fail.example.")
	// A frozen clock: a moving one ticks the EDE 13 countdown mid-measurement.
	now := time.Unix(int64(testbed.Now), 0)
	fe := frontend.New(mixedUpstream, frontend.Config{Now: func() time.Time { return now }})
	srv := NewServer(Config{Handler: fe, TCPKeepalive: 5 * time.Second})
	addr, _, _ := serveOn(t, srv, func(l net.Listener) net.Listener { return l })
	conn := dialTCP(t, addr)

	resp := make([]byte, 512)
	allocsFor := func(q *dnswire.Message) float64 {
		query := framed(t, q)
		exchange := func() {
			if _, err := conn.Write(query); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, resp[:2]); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, resp[2:2+binary.BigEndian.Uint16(resp)]); err != nil {
				t.Fatal(err)
			}
		}
		exchange() // the miss: an answer, or the failure
		exchange() // a wire serve, or the cached-error hit that captures
		before := srv.m.wireServes[TransportTCP].Load()
		allocs := testing.AllocsPerRun(500, exchange)
		if got := srv.m.wireServes[TransportTCP].Load() - before; got < 500 {
			t.Fatalf("%s: only %d of the measured exchanges were wire serves", q.Question[0].Name, got)
		}
		return allocs
	}
	hit := allocsFor(hitQuery(9))
	if hit > 2 {
		t.Errorf("a stream wire hit allocates %.1f times, want <= 2", hit)
	}
	if errHit := allocsFor(dnswire.NewQuery(10, fail, dnswire.TypeA)); errHit > hit {
		t.Errorf("a stream wire-served cached error allocates %.1f times, a positive hit %.1f", errHit, hit)
	}
}

type upstreamFunc func(context.Context, dnswire.Name, dnswire.Type) (*dnswire.Message, error)

func (f upstreamFunc) Exchange(ctx context.Context, n dnswire.Name, t dnswire.Type) (*dnswire.Message, error) {
	return f(ctx, n, t)
}

// TestStreamMixedPipeline: with the wire path on, what the cache declines
// still runs out of order on its own goroutine and is still shed at
// maxPipeline, while hits behind it are answered inline.
func TestStreamMixedPipeline(t *testing.T) {
	slow, other := dnswire.MustName("slow.example"), dnswire.MustName("other.example")
	srv := NewServer(Config{
		Handler: echoHandler(map[string]time.Duration{slow.String(): 300 * time.Millisecond}),
		Wire:    stubWire{decline: map[dnswire.Name]bool{slow: true, other: true}},
	})
	addr, _, _ := serveOn(t, srv, func(l net.Listener) net.Listener { return l })
	conn := dialTCP(t, addr)

	// IDs 1–64 fill the pipeline with slow misses; 65 is a miss past it, 66
	// a hit.
	const shedID, hitID = maxPipeline + 1, maxPipeline + 2
	var burst []byte
	for id := uint16(1); id <= maxPipeline; id++ {
		burst = append(burst, framed(t, dnswire.NewQuery(id, slow, dnswire.TypeA))...)
	}
	burst = append(burst, framed(t, dnswire.NewQuery(shedID, other, dnswire.TypeA))...)
	burst = append(burst, framed(t, hitQuery(hitID))...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	got := map[uint16]*dnswire.Message{}
	var order []uint16
	for i := 0; i < hitID; i++ {
		resp, err := dnswire.ReadStream(conn)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		got[resp.ID] = resp
		order = append(order, resp.ID)
	}
	if !slices.Contains(order[:2], shedID) || !slices.Contains(order[:2], hitID) {
		t.Errorf("response order = %v, want the slow misses (1–%d) last", order, maxPipeline)
	}
	if r := got[1]; r == nil || r.RCode != dnswire.RCodeNoError || len(r.Answer) != 1 {
		t.Errorf("slow miss = %v, want the handler's answer", r)
	}
	if r := got[shedID]; r == nil || r.RCode != dnswire.RCodeServFail {
		t.Errorf("miss past the pipeline = %v, want SERVFAIL: the pipeline holds %d queries", r, maxPipeline)
	} else {
		assertEDE(t, r, uint16(ede.CodeNetworkError))
	}
	if r := got[hitID]; r == nil || r.RCode != dnswire.RCodeNoError || len(r.Answer) != 0 {
		t.Errorf("hit = %v, want the wire cache's bare answer", r)
	}
	if hits, sheds := srv.m.wireServes[TransportTCP].Load(), srv.m.sheds[TransportTCP].Load(); hits != 1 || sheds != 1 {
		t.Errorf("wire serves = %d, sheds = %d; want 1 and 1", hits, sheds)
	}
}

// TestStreamFormerr: a frame whose length prefix was honoured but whose
// payload does not parse gets the UDP path's FORMERR and the connection
// goes on serving; a frame too short for an ID and a stream that ends
// mid-frame close it. Each is counted as a front-door error.
func TestStreamFormerr(t *testing.T) {
	frame := func(payload ...byte) []byte {
		return append([]byte{byte(len(payload) >> 8), byte(len(payload))}, payload...)
	}
	cases := []struct {
		name     string
		send     []byte
		halfShut bool // close the write side after sending
		// wantID/wantFlags describe the FORMERR header; closes means no
		// answer at all, just the end of the connection.
		wantID    uint16
		wantFlags [2]byte
		closes    bool
	}{
		{name: "question promised, none sent",
			send:   frame(0xDE, 0xAD, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0),
			wantID: 0xDEAD, wantFlags: [2]byte{0x81, 0x01}},
		{name: "CD and opcode echoed",
			send:   frame(0xBE, 0xEF, 0x28, 0x10, 0xFF),
			wantID: 0xBEEF, wantFlags: [2]byte{0xA8, 0x11}},
		{name: "bare ID",
			send:   frame(0x12, 0x34),
			wantID: 0x1234, wantFlags: [2]byte{0x80, 0x01}},
		{name: "one-byte frame", send: frame(0x42), closes: true},
		{name: "empty frame", send: frame(), closes: true},
		{name: "stream ends mid-frame", send: []byte{0x00, 0x20, 0xAA, 0xBB, 0xCC}, halfShut: true, closes: true},
		{name: "stream ends mid-prefix", send: []byte{0x00}, halfShut: true, closes: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(Config{Handler: echoHandler(nil), Wire: stubWire{}})
			addr, _, _ := serveOn(t, srv, func(l net.Listener) net.Listener { return l })
			conn := dialTCP(t, addr)

			// A good query first: what follows meets a connection in use.
			if _, err := conn.Write(append(framed(t, hitQuery(1)), tc.send...)); err != nil {
				t.Fatal(err)
			}
			if tc.halfShut {
				conn.(*net.TCPConn).CloseWrite()
			}
			if resp, err := dnswire.ReadStream(conn); err != nil || resp.ID != 1 {
				t.Fatalf("query ahead of the bad frame: got %v, %v", resp, err)
			}
			if tc.closes {
				if b, err := readRawFrame(conn); err != io.EOF {
					t.Fatalf("got %x, %v; want the connection closed without an answer", b, err)
				}
			} else {
				b, err := readRawFrame(conn)
				if err != nil {
					t.Fatalf("no FORMERR came back: %v", err)
				}
				want := append(frame(byte(tc.wantID>>8), byte(tc.wantID), tc.wantFlags[0], tc.wantFlags[1]), 0, 0, 0, 0, 0, 0, 0, 0)
				binary.BigEndian.PutUint16(want, formerrLen)
				if !bytes.Equal(b, want) {
					t.Fatalf("FORMERR = %x, want %x", b, want)
				}
				// The connection is still in step.
				if _, err := conn.Write(framed(t, hitQuery(2))); err != nil {
					t.Fatal(err)
				}
				if resp, err := dnswire.ReadStream(conn); err != nil || resp.ID != 2 {
					t.Fatalf("query behind the bad frame: got %v, %v", resp, err)
				}
			}
			if got := srv.m.errors[TransportTCP].Load(); got != 1 {
				t.Errorf("front-door errors = %d, want 1", got)
			}
		})
	}
}
