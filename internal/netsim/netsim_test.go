package netsim

import (
	"context"
	"net/netip"
	"sync"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

func echoHandler() Handler {
	return HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.AddEDE(9, "echo")
		return r, nil
	})
}

func TestQueryRoundTripsThroughWireFormat(t *testing.T) {
	n := New(42)
	addr := netip.MustParseAddr("198.18.9.1")
	n.Register(addr, echoHandler())
	q := dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA)
	resp, _, err := n.Exchange(context.Background(), addr, q)
	if err != nil {
		t.Fatal(err)
	}
	edes := resp.EDEs()
	if len(edes) != 1 || edes[0].InfoCode != 9 || edes[0].ExtraText != "echo" {
		t.Errorf("EDEs = %v", edes)
	}
}

func TestQueryToUnregisteredTimesOut(t *testing.T) {
	n := New(42)
	_, _, err := n.Exchange(context.Background(), netip.MustParseAddr("198.18.9.2"),
		dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA))
	if err != ErrTimeout {
		t.Errorf("err = %v", err)
	}
	if st := n.Stats(); st.Unreachable != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLossRate(t *testing.T) {
	n := New(7)
	addr := netip.MustParseAddr("198.18.9.3")
	n.Register(addr, echoHandler())
	n.SetLossRate(1.0)
	_, _, err := n.Exchange(context.Background(), addr,
		dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA))
	if err != ErrTimeout {
		t.Errorf("err = %v with 100%% loss", err)
	}
	if st := n.Stats(); st.Lost != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeregister(t *testing.T) {
	n := New(1)
	addr := netip.MustParseAddr("198.18.9.4")
	n.Register(addr, echoHandler())
	n.Deregister(addr)
	if _, _, err := n.Exchange(context.Background(), addr,
		dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA)); err != ErrTimeout {
		t.Errorf("err = %v after deregister", err)
	}
}

func TestFlakyAlternates(t *testing.T) {
	h := Flaky(echoHandler(), StaticRCode(dnswire.RCodeServFail))
	ctx := context.Background()
	q := dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA)
	r1, _ := h.HandleDNS(ctx, q)
	r2, _ := h.HandleDNS(ctx, q)
	if r1.RCode == r2.RCode {
		t.Errorf("flaky handler did not alternate: %s then %s", r1.RCode, r2.RCode)
	}
}

func TestNoEDNSStripsOPT(t *testing.T) {
	h := NoEDNS(echoHandler())
	resp, err := h.HandleDNS(context.Background(),
		dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.OPT != nil {
		t.Error("OPT survived NoEDNS")
	}
}

func TestMismatchedQuestionRewrites(t *testing.T) {
	h := MismatchedQuestion(echoHandler())
	resp, err := h.HandleDNS(context.Background(),
		dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Question[0].Name == dnswire.MustName("a.example") {
		t.Error("question not rewritten")
	}
}

func TestHandlerErrorCountsAsError(t *testing.T) {
	n := New(3)
	addr := netip.MustParseAddr("198.18.9.9")
	n.Register(addr, Unresponsive())
	if _, _, err := n.Exchange(context.Background(), addr,
		dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA)); err != ErrTimeout {
		t.Errorf("err = %v", err)
	}
	if st := n.Stats(); st.Errors != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestNoEDNSClampsExtendedRCode checks the wrapping is consistent end to end:
// a handler answering with an extended RCODE (BADCOOKIE = 23, upper bits in
// the OPT) loses both the OPT and the extension bits behind NoEDNS — the
// response must survive the wire round trip through Network.Query, arriving
// as the clamped 4-bit code rather than failing to pack.
func TestNoEDNSClampsExtendedRCode(t *testing.T) {
	inner := HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.RCode = dnswire.RCode(23) // BADCOOKIE: needs OPT extension bits
		return r, nil
	})
	n := New(42)
	addr := netip.MustParseAddr("198.18.9.7")
	n.Register(addr, NoEDNS(inner))
	resp, _, err := n.Exchange(context.Background(), addr,
		dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.OPT != nil {
		t.Errorf("OPT survived NoEDNS")
	}
	if resp.RCode != dnswire.RCode(23&0xF) {
		t.Errorf("RCode = %d, want the clamped low bits %d", resp.RCode, 23&0xF)
	}
}

// TestNoEDNSDoesNotMutateHandlerResponse: handlers may hand out shared or
// cached messages; the wrapper must clamp a copy, not the original.
func TestNoEDNSDoesNotMutateHandlerResponse(t *testing.T) {
	shared := dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA).Reply()
	shared.RCode = dnswire.RCode(23)
	h := NoEDNS(HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return shared, nil
	}))
	resp, err := h.HandleDNS(context.Background(), dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.OPT != nil || resp.RCode != dnswire.RCode(23&0xF) {
		t.Errorf("wrapped response: OPT=%v RCode=%d", resp.OPT, resp.RCode)
	}
	if shared.OPT == nil || shared.RCode != dnswire.RCode(23) {
		t.Errorf("NoEDNS mutated the handler's message: OPT=%v RCode=%d", shared.OPT, shared.RCode)
	}
}

// TestConcurrentQueriesRaceClean drives a Flaky and a static endpoint (and
// the network counters, loss process, and wire-buffer pool under them) from
// many goroutines at once. Run under -race in CI, this is the regression test for
// the lock-free query path.
func TestConcurrentQueriesRaceClean(t *testing.T) {
	n := New(42)
	n.SetLossRate(0.05)
	flakyAddr := netip.MustParseAddr("198.18.9.8")
	refusedAddr := netip.MustParseAddr("198.18.9.9")
	n.Register(flakyAddr, Flaky(echoHandler(), StaticRCode(dnswire.RCodeServFail)))
	n.Register(refusedAddr, StaticRCode(dnswire.RCodeRefused))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := dnswire.NewQuery(uint16(g), dnswire.MustName("a.example"), dnswire.TypeA)
			for i := 0; i < 100; i++ {
				addr := flakyAddr
				if i%2 == 0 {
					addr = refusedAddr
				}
				n.Exchange(context.Background(), addr, q)
			}
		}(g)
	}
	wg.Wait()

	st := n.Stats()
	if st.Queries != 800 {
		t.Errorf("Queries = %d, want 800", st.Queries)
	}
	if st.Answered+st.Lost+st.Errors != st.Queries {
		t.Errorf("counters do not add up: %+v", st)
	}
}
