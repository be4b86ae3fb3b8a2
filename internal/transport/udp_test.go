package transport

import (
	"context"
	"net"
	"net/netip"
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

// TestUDPInflightShed: with MaxUDPInflight=1 and the single slot parked,
// the next datagram is answered SERVFAIL + EDE 23.
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
	addr, _ := startUDP(t, Config{Handler: handler, MaxUDPInflight: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Park the only slot (fire and forget; no response will come).
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	wire, _ := dnswire.NewQuery(5, dnswire.MustName("slow.example"), dnswire.TypeA).Pack()
	conn.Write(wire)
	time.Sleep(100 * time.Millisecond)

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

// TestUDPShedBurst: datagrams past MaxUDPInflight that arrive in one receive
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
	addr, srv := startUDP(t, Config{Handler: handler, Wire: wire, MaxUDPInflight: 1, Registry: reg})
	conn := dialUDP(t, addr)
	send := func(id uint16, name string) {
		t.Helper()
		if _, err := conn.Write(mustPack(t, dnswire.NewQuery(id, dnswire.MustName(name), dnswire.TypeA))); err != nil {
			t.Fatalf("write: %v", err)
		}
	}

	send(1, "slow.example.") // parks the only slot
	send(2, "gate.example.")
	<-wire.held
	rounds := srv.m.batchRounds.Load()
	for id := uint16(10); id < 10+n; id++ {
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
		if resp.ID == 2 {
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
