package transport

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// bigAnswerHandler returns n A records plus an EDE with a long EXTRA-TEXT,
// to force truncation decisions.
func bigAnswerHandler(n int, extraText string) netsim.Handler {
	return netsim.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.RecursionAvailable = true
		for i := 0; i < n; i++ {
			r.Answer = append(r.Answer, dnswire.RR{
				Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
			})
		}
		r.AddEDE(3, extraText)
		return r, nil
	})
}

func startUDP(t *testing.T, cfg Config) (addr string, srv *Server) {
	t.Helper()
	srv = NewServer(cfg)
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go srv.ServeUDP(ctx, conn)
	t.Cleanup(cancel)
	return conn.LocalAddr().String(), srv
}

// fill sends queries for name from conn until count, a server counter, reads
// n. It sends in rounds of at most 64 datagrams and waits for each, so the
// server's socket buffer does not overflow and no more than n are sent; a
// datagram the kernel drops anyway is sent again once the counter has stood
// still for 100 ms. The queries' IDs count up from 1.
func fill(t *testing.T, conn net.Conn, name string, n uint64, count func() uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	id := uint16(0)
	for got := count(); got < n; {
		want := min(got+64, n)
		for ; got < want; got++ {
			id++
			if _, err := conn.Write(mustPack(t, dnswire.NewQuery(id, dnswire.MustName(name), dnswire.TypeA))); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		last, moved := count(), time.Now()
		for last < want && time.Since(moved) < 100*time.Millisecond {
			if time.Now().After(deadline) {
				t.Fatalf("the server counted %d of %d queries", last, n)
			}
			time.Sleep(time.Millisecond)
			if c := count(); c != last {
				last, moved = c, time.Now()
			}
		}
		got = last
	}
}

// TestUDPTruncationHonorsBufferSize: a response larger than the client's
// advertised buffer must come back TC=1, within the limit, with the answer
// section emptied and the EDE still attached.
func TestUDPTruncationHonorsBufferSize(t *testing.T) {
	addr, _ := startUDP(t, Config{Handler: bigAnswerHandler(100, "validation detail")})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	q := dnswire.NewQuery(1, dnswire.MustName("big.example"), dnswire.TypeA)
	q.OPT.UDPSize = 600
	resp, err := QueryUDP(ctx, addr, q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !resp.Truncated {
		t.Error("oversized response did not set TC")
	}
	wire, err := resp.Pack()
	if err != nil {
		t.Fatalf("re-packing response: %v", err)
	}
	if len(wire) > 600 {
		t.Errorf("response is %d bytes, exceeds the advertised 600", len(wire))
	}
	if len(resp.Answer) != 0 {
		t.Errorf("truncated response carries %d answer RRs; TC responses must not carry partial data", len(resp.Answer))
	}
	if codes := resp.EDECodes(); len(codes) != 1 || codes[0] != 3 {
		t.Errorf("EDEs after truncation = %v, want [3]; the diagnostic must survive", codes)
	}
}

// TestUDPNoOPTGets512: a client without EDNS gets at most 512 bytes and no
// OPT record in the reply.
func TestUDPNoOPTGets512(t *testing.T) {
	addr, _ := startUDP(t, Config{Handler: bigAnswerHandler(100, "detail")})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	q := dnswire.NewQuery(2, dnswire.MustName("big.example"), dnswire.TypeA)
	q.OPT = nil
	resp, err := QueryUDP(ctx, addr, q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if !resp.Truncated {
		t.Error("oversized response did not set TC")
	}
	wire, _ := resp.Pack()
	if len(wire) > 512 {
		t.Errorf("response is %d bytes, exceeds the pre-EDNS 512 limit", len(wire))
	}
}

// TestUDPFitsNoTruncation: a response within the buffer passes through
// whole.
func TestUDPFitsNoTruncation(t *testing.T) {
	addr, _ := startUDP(t, Config{Handler: bigAnswerHandler(2, "fits")})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	resp, err := QueryUDP(ctx, addr, dnswire.NewQuery(3, dnswire.MustName("small.example"), dnswire.TypeA))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if resp.Truncated {
		t.Error("TC set on a response that fits")
	}
	if len(resp.Answer) != 2 {
		t.Errorf("answer count = %d, want 2", len(resp.Answer))
	}
}

// TestPackUDPResponseDegradesEDE: when even the minimal TC response
// exceeds the limit, EXTRA-TEXT goes first (codes stay), then all options.
func TestPackUDPResponseDegradesEDE(t *testing.T) {
	q := dnswire.NewQuery(4, dnswire.MustName("a.very.long.example.name.for.this.test.example.com"), dnswire.TypeA)
	resp := q.Reply()
	resp.AddEDE(7, strings.Repeat("x", 600))
	resp.Answer = []dnswire.RR{{Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.A{Addr: mustAddr("192.0.2.9")}}}

	// Limit that fits the minimal message only once EXTRA-TEXT is gone.
	wire, truncated, err := packUDPResponse(resp, 512, nil)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	if !truncated {
		t.Fatal("expected truncation")
	}
	if len(wire) > 512 {
		t.Fatalf("packed %d bytes, want <= 512", len(wire))
	}
	m, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if codes := m.EDECodes(); len(codes) != 1 || codes[0] != 7 {
		t.Errorf("EDE codes = %v, want [7] (code survives, text dropped)", codes)
	}
	if edes := m.EDEs(); len(edes) == 1 && edes[0].ExtraText != "" {
		t.Errorf("EXTRA-TEXT survived (%d bytes), want dropped", len(edes[0].ExtraText))
	}

	// The original response must be untouched by the truncation copies.
	if len(resp.Answer) != 1 || resp.EDEs()[0].ExtraText == "" {
		t.Error("packUDPResponse mutated its input message")
	}
}

// TestUDPInflightShed: with all maxUDPInflight slots parked, the next
// datagram is answered SERVFAIL + EDE 23.
func TestUDPInflightShed(t *testing.T) {
	block := make(chan struct{})
	handler := netsim.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		if q.Question[0].Name.String() == "slow.example." {
			select {
			case <-block:
			case <-ctx.Done():
			}
		}
		return q.Reply(), nil
	})
	defer close(block)
	addr, srv := startUDP(t, Config{Handler: handler})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Park every slot (fire and forget; no response will come).
	fill(t, dialUDP(t, addr), "slow.example.", maxUDPInflight, srv.m.queries[TransportUDP].Load)

	resp, err := QueryUDP(ctx, addr, dnswire.NewQuery(6, dnswire.MustName("fast.example"), dnswire.TypeA))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Errorf("shed RCODE = %s, want SERVFAIL", resp.RCode)
	}
	assertEDE(t, resp, 23)
}

// gateWire is a wire cache that holds one name and blocks the read loop on
// it: ServeWire for gate signals held, waits for release, then answers.
// Every other name is declined.
type gateWire struct {
	gate          dnswire.Name
	held, release chan struct{}
}

func (w gateWire) ServeWire(q dnswire.WireQuery, limit int, dst []byte) ([]byte, bool) {
	if q.Name != w.gate {
		return nil, false
	}
	close(w.held)
	<-w.release
	return stubWire{}.ServeWire(q, limit, dst)
}

// TestUDPShedBurst: datagrams past maxUDPInflight that arrive in one receive
// round are each answered SERVFAIL + EDE 23, and the sheds counter reads
// how many there were. The read loop is held on a gate query while the
// burst queues up behind it, so the burst is one round where the I/O
// batches.
func TestUDPShedBurst(t *testing.T) {
	const n = 8
	park := make(chan struct{})
	handler := netsim.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		select {
		case <-park:
		case <-ctx.Done():
		}
		return q.Reply(), nil
	})
	defer close(park)
	wire := gateWire{gate: dnswire.MustName("gate.example."), held: make(chan struct{}), release: make(chan struct{})}
	reg := telemetry.NewRegistry()
	addr, srv := startUDP(t, Config{Handler: handler, Wire: wire, Registry: reg})
	conn := dialUDP(t, addr)
	send := func(id uint16, name string) {
		t.Helper()
		if _, err := conn.Write(mustPack(t, dnswire.NewQuery(id, dnswire.MustName(name), dnswire.TypeA))); err != nil {
			t.Fatalf("write: %v", err)
		}
	}

	fill(t, conn, "slow.example.", maxUDPInflight, srv.m.queries[TransportUDP].Load) // parks every slot, IDs 1–512
	send(1000, "gate.example.")
	<-wire.held
	rounds := srv.m.batchRounds.Load()
	for id := uint16(2000); id < 2000+n; id++ {
		send(id, "fast.example.")
	}
	time.Sleep(50 * time.Millisecond) // loopback delivery is synchronous; this is margin
	close(wire.release)

	shed := map[uint16]bool{}
	for i := 0; i < n+1; i++ {
		b, ok := readAnswer(t, conn, 5*time.Second)
		if !ok {
			t.Fatalf("%d answers of %d came back", i, n+1)
		}
		resp, err := dnswire.Unpack(b)
		if err != nil {
			t.Fatalf("unpack: %v", err)
		}
		if resp.ID == 1000 {
			continue // the gate's own answer
		}
		if resp.RCode != dnswire.RCodeServFail {
			t.Errorf("ID %d: RCODE %s, want SERVFAIL", resp.ID, resp.RCode)
		}
		assertEDE(t, resp, uint16(ede.CodeNetworkError))
		shed[resp.ID] = true
	}
	if len(shed) != n {
		t.Errorf("%d distinct shed answers, want %d", len(shed), n)
	}
	if v, _ := reg.Value("edelab_frontdoor_sheds_total", telemetry.L("transport", TransportUDP)); v != n {
		t.Errorf("sheds_total = %v, want %d", v, n)
	}
	if batchedUDP {
		if got := srv.m.batchRounds.Load() - rounds; got != 1 {
			t.Errorf("the burst took %d receive rounds after the gate's, want 1", got)
		}
	}
}

// portableConn hides a *net.UDPConn behind the PacketConn interface, so
// ServeUDP reads it through oneIO, the path of every platform without
// batched I/O.
type portableConn struct{ net.PacketConn }

// bigReplies answers a query for name with records[name] A records (one
// for any other name), from HandleDNS and from ServeWire alike; ServeWire
// declines the names in slow.
type bigReplies struct {
	records map[dnswire.Name]int
	slow    map[dnswire.Name]bool
}

func (b bigReplies) reply(q *dnswire.Message) *dnswire.Message {
	r := q.Reply()
	r.RecursionAvailable = true
	for i := 0; i < max(b.records[q.Question[0].Name], 1); i++ {
		r.Answer = append(r.Answer, dnswire.RR{
			Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})},
		})
	}
	return r
}

func (b bigReplies) HandleDNS(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	return b.reply(q), nil
}

func (b bigReplies) ServeWire(q dnswire.WireQuery, _ int, dst []byte) ([]byte, bool) {
	if b.slow[q.Name] {
		return nil, false
	}
	m := dnswire.NewQuery(q.ID, q.Name, q.Type)
	out, err := b.reply(m).AppendPack(dst)
	return out, err == nil
}

// paddedQuery is a query exactly n bytes long: an EDNS padding option
// (RFC 7830) fills what the question leaves.
func paddedQuery(t *testing.T, id uint16, n int) []byte {
	t.Helper()
	const padding = 12
	q := dnswire.NewQuery(id, dnswire.MustName("pad.example."), dnswire.TypeA)
	q.OPT.Options = []dnswire.Option{dnswire.RawOption{OptCode: padding}}
	fill := n - len(mustPack(t, q))
	q.OPT.Options = []dnswire.Option{dnswire.RawOption{OptCode: padding, Data: make([]byte, fill)}}
	wire := mustPack(t, q)
	if len(wire) != n {
		t.Fatalf("padded query is %d bytes, want %d", len(wire), n)
	}
	return wire
}

// TestUDPOversizedDatagram: on the batched path and on oneIO alike, a
// datagram one byte longer than a receive slot is answered FORMERR with its
// ID echoed, one exactly a slot long is served, and an answer longer than a
// reply slot leaves whole — the bytes the handler or the wire cache built —
// from the wire path and the slow path, at client limits of 4,096 and
// 65,535.
func TestUDPOversizedDatagram(t *testing.T) {
	// Each answer outgrows udpReplySlot and fits its client's limit.
	bigs := []struct {
		name    string
		limit   uint16
		records int
		slow    bool
	}{
		{"wire-4096.example.", 4096, 200, false},
		{"slow-4096.example.", 4096, 200, true},
		{"wire-65535.example.", 0xFFFF, 2000, false},
		{"slow-65535.example.", 0xFFFF, 2000, true},
	}
	h := bigReplies{records: map[dnswire.Name]int{}, slow: map[dnswire.Name]bool{}}
	for _, b := range bigs {
		n := dnswire.MustName(b.name)
		h.records[n], h.slow[n] = b.records, b.slow
	}

	for _, path := range []struct {
		name string
		wrap func(*net.UDPConn) net.PacketConn
	}{
		{"batched", func(c *net.UDPConn) net.PacketConn { return c }},
		{"portable", func(c *net.UDPConn) net.PacketConn { return portableConn{c} }},
	} {
		t.Run(path.name, func(t *testing.T) {
			srv := NewServer(Config{Handler: h, Wire: h})
			pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { srv.ServeUDP(ctx, path.wrap(pc)); close(done) }()
			t.Cleanup(func() { cancel(); <-done })
			conn := dialUDP(t, pc.LocalAddr().String())
			ask := func(q []byte) []byte {
				t.Helper()
				if _, err := conn.Write(q); err != nil {
					t.Fatalf("write: %v", err)
				}
				b, ok := readAnswer(t, conn, 5*time.Second)
				if !ok {
					t.Fatalf("no answer to the %d-byte query", len(q))
				}
				return b
			}

			errs := srv.m.errors[TransportUDP].Load()
			resp, err := dnswire.Unpack(ask(paddedQuery(t, 0xBEEF, udpQuerySlot+1)))
			if err != nil {
				t.Fatalf("unpacking the answer to an oversized datagram: %v", err)
			}
			if resp.ID != 0xBEEF || !resp.Response || resp.RCode != dnswire.RCodeFormErr || resp.OPT != nil {
				t.Errorf("oversized datagram: id=%#x qr=%t rcode=%s opt=%t, want id=0xbeef qr=true rcode=FORMERR and no OPT",
					resp.ID, resp.Response, resp.RCode, resp.OPT != nil)
			}
			if got := srv.m.errors[TransportUDP].Load() - errs; got != 1 {
				t.Errorf("oversized datagram counted %d times under the errors metric, want 1", got)
			}

			resp, err = dnswire.Unpack(ask(paddedQuery(t, 0xCAFE, udpQuerySlot)))
			if err != nil {
				t.Fatalf("unpacking the answer to a slot-long datagram: %v", err)
			}
			if resp.ID != 0xCAFE || resp.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 {
				t.Errorf("slot-long datagram: id=%#x rcode=%s with %d answers, want id=0xcafe NOERROR with 1",
					resp.ID, resp.RCode, len(resp.Answer))
			}

			for i, b := range bigs {
				q := dnswire.NewQuery(uint16(i+1), dnswire.MustName(b.name), dnswire.TypeA)
				q.OPT.UDPSize = b.limit
				want := mustPack(t, h.reply(q))
				if len(want) <= udpReplySlot || len(want) > int(b.limit) {
					t.Fatalf("the answer for %s is %d bytes; the test needs it above the %d-byte reply slot and within the %d limit",
						b.name, len(want), udpReplySlot, b.limit)
				}
				wireServes := srv.m.wireServes[TransportUDP].Load()
				if got := ask(mustPack(t, q)); !bytes.Equal(got, want) {
					t.Errorf("%s: a %d-byte answer came back as %d bytes, not the ones built", b.name, len(want), len(got))
				}
				if wired := srv.m.wireServes[TransportUDP].Load() > wireServes; wired == b.slow {
					t.Errorf("%s: wire serve %t, want %t", b.name, wired, !b.slow)
				}
			}
		})
	}
}

// TestUDPListenerFootprint: a serving UDP listener's buffers are sized to
// DNS messages, not to the 64 KiB datagram ceiling. After a few hundred
// wire hits and slow-path answers, with the listener still up, the heap
// holds at most 256 KiB more than before it started — its receive and
// reply slots and the pooled slow-path buffers included.
func TestUDPListenerFootprint(t *testing.T) {
	const budget = 256 << 10
	h := stubWire{decline: map[dnswire.Name]bool{dnswire.MustName("miss.example."): true}}
	srv := NewServer(Config{Handler: echoHandler(nil), Wire: h})
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	conn := dialUDP(t, pc.LocalAddr().String())
	queries := [][]byte{
		mustPack(t, dnswire.NewQuery(1, dnswire.MustName("hit.example."), dnswire.TypeA)),
		mustPack(t, dnswire.NewQuery(2, dnswire.MustName("miss.example."), dnswire.TypeA)),
	}
	buf := make([]byte, minUDPPayload)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	// Listeners that earlier tests cancelled may still be winding down:
	// the baseline is taken once the heap stops shrinking.
	idle := heap()
	for i := 0; i < 20; i++ {
		time.Sleep(10 * time.Millisecond)
		now := heap()
		if now > idle-64<<10 {
			break
		}
		idle = now
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { srv.ServeUDP(ctx, pc); close(done) }()
	defer func() { cancel(); <-done }()
	const n = 400
	for i := 0; i < n; i++ {
		if _, err := conn.Write(queries[i%2]); err != nil {
			t.Fatalf("write: %v", err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
	}
	if got := srv.m.wireServes[TransportUDP].Load(); got != n/2 {
		t.Fatalf("%d wire serves, want %d", got, n/2)
	}
	if grew := heap() - idle; grew > budget {
		t.Errorf("a serving UDP listener holds %d KiB of heap, over the %d KiB budget", grew>>10, budget>>10)
	}
}

// BenchmarkServeUDP measures the full loopback round trip through the
// front door with a trivial handler: the per-query transport overhead.
func BenchmarkServeUDP(b *testing.B) {
	srv := NewServer(Config{Handler: echoHandler(nil)})
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.ServeUDP(ctx, pc)

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		b.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	q := dnswire.NewQuery(1, dnswire.MustName("bench.example"), dnswire.TypeA)
	wire, _ := q.Pack()
	buf := make([]byte, maxUDPPayload)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(wire); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackUDPResponse measures the truncation-aware packer on a
// response that fits (the overwhelmingly common case).
func BenchmarkPackUDPResponse(b *testing.B) {
	q := dnswire.NewQuery(1, dnswire.MustName("bench.example"), dnswire.TypeA)
	resp := q.Reply()
	resp.Answer = []dnswire.RR{{Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: mustAddr("192.0.2.1")}}}
	resp.AddEDE(3, "stale answer")
	buf := make([]byte, 0, maxUDPPayload)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, _, err := packUDPResponse(resp, 1232, buf)
		if err != nil {
			b.Fatal(err)
		}
		_ = wire
	}
}
