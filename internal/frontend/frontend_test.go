package frontend

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// fakeClock is a settable serving clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *fakeClock {
	return &fakeClock{t: time.Date(2023, 5, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// stubUpstream scripts the recursive engine behind the frontend.
type stubUpstream struct {
	mu    sync.Mutex
	fn    func(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error)
	calls atomic.Int64
}

func (s *stubUpstream) set(fn func(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error)) {
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

func (s *stubUpstream) Exchange(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	s.calls.Add(1)
	s.mu.Lock()
	fn := s.fn
	s.mu.Unlock()
	return fn(ctx, qname, qtype)
}

// positive builds an upstream answer with the given TTL.
func positive(qname dnswire.Name, ttl uint32) *dnswire.Message {
	return &dnswire.Message{
		Response: true,
		RCode:    dnswire.RCodeNoError,
		Question: []dnswire.Question{{Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
		Answer: []dnswire.RR{{
			Name: qname, Class: dnswire.ClassIN, TTL: ttl,
			Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")},
		}},
		OPT: &dnswire.OPT{UDPSize: 1232, DO: true},
	}
}

// nxdomain builds an upstream NXDOMAIN with an RFC 2308 SOA.
func nxdomain(qname dnswire.Name, minimum uint32) *dnswire.Message {
	return &dnswire.Message{
		Response: true,
		RCode:    dnswire.RCodeNXDomain,
		Question: []dnswire.Question{{Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
		Authority: []dnswire.RR{{
			Name: dnswire.MustName("example."), Class: dnswire.ClassIN, TTL: minimum,
			Data: dnswire.SOA{
				MName: dnswire.MustName("ns1.example."), RName: dnswire.MustName("hostmaster.example."),
				Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: minimum,
			},
		}},
		OPT: &dnswire.OPT{UDPSize: 1232, DO: true},
	}
}

func servfail(qname dnswire.Name) *dnswire.Message {
	m := &dnswire.Message{
		Response: true,
		RCode:    dnswire.RCodeServFail,
		Question: []dnswire.Question{{Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
		OPT:      &dnswire.OPT{UDPSize: 1232, DO: true},
	}
	m.AddEDE(uint16(ede.CodeNoReachableAuthority), "")
	return m
}

func query(name string) *dnswire.Message {
	return dnswire.NewQuery(7, dnswire.MustName(name), dnswire.TypeA)
}

func hasEDE(t *testing.T, m *dnswire.Message, code ede.Code) dnswire.EDEOption {
	t.Helper()
	for _, e := range m.EDEs() {
		if e.InfoCode == uint16(code) {
			return e
		}
	}
	t.Fatalf("response lacks EDE %s; got %v", code, m.EDECodes())
	return dnswire.EDEOption{}
}

func TestFreshHitDecrementsTTL(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(qname, 100), nil
	})
	f := New(up, Config{Now: clock.Now})

	if _, err := f.HandleDNS(context.Background(), query("www.example.")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(40 * time.Second)
	resp, err := f.HandleDNS(context.Background(), query("www.example."))
	if err != nil {
		t.Fatal(err)
	}
	if got := up.calls.Load(); got != 1 {
		t.Fatalf("upstream calls = %d, want 1 (second query must hit cache)", got)
	}
	if len(resp.Answer) != 1 || resp.Answer[0].TTL != 60 {
		t.Fatalf("TTL not decremented: %+v", resp.Answer)
	}
	snap := f.Metrics().Snapshot()
	if snap.Hits != 1 || snap.Misses != 1 || snap.Queries != 2 {
		t.Fatalf("metrics = %+v, want 1 hit / 1 miss / 2 queries", snap)
	}
}

// TestCoalescing is the acceptance test for singleflight: N concurrent
// identical queries cause exactly one upstream recursion, with the
// piggybacking visible in the metrics snapshot.
func TestCoalescing(t *testing.T) {
	const clients = 32
	release := make(chan struct{})
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		<-release // hold the leader in flight until every client has joined
		return positive(qname, 300), nil
	})
	f := New(up, Config{})

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := f.HandleDNS(context.Background(), query("popular.example."))
			if err != nil || resp.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 {
				t.Errorf("coalesced client got %v / %v", resp, err)
			}
		}()
	}
	// Wait until all clients are inside HandleDNS, give the stragglers a
	// beat to join the flight, then let the recursion finish.
	for f.Metrics().Snapshot().Queries < clients {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := up.calls.Load(); got != 1 {
		t.Fatalf("upstream recursions = %d, want exactly 1", got)
	}
	snap := f.Metrics().Snapshot()
	if snap.Misses != 1 {
		t.Fatalf("misses = %d, want 1", snap.Misses)
	}
	if snap.CoalescedWaits != clients-1 {
		t.Fatalf("coalesced waits = %d, want %d", snap.CoalescedWaits, clients-1)
	}
}

// TestLeaderRechecksTheCache: a client whose cache check missed just before
// the flight leader stored the answer and closed its flight leads the next
// flight; it finds the stored answer, a hit, instead of recursing again.
// The test takes that interleaving step by step: the first client's whole
// miss, then the second client's flight.
func TestLeaderRechecksTheCache(t *testing.T) {
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(qname, 300), nil
	})
	f := New(up, Config{})
	q := query("raced.example.")
	if _, err := f.HandleDNS(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	k := key{name: q.Question[0].Name, qtype: q.Question[0].Type}
	sv, shared := f.flights.do(k, func() *served { return f.fetch(context.Background(), k) })
	if shared || sv.mode != modeFresh || len(sv.e.answer) != 1 {
		t.Fatalf("second flight: shared %v, mode %d, %d answers; want its own flight serving the stored answer", shared, sv.mode, len(sv.e.answer))
	}
	if got := up.calls.Load(); got != 1 {
		t.Errorf("upstream recursions = %d, want 1: the second leader recursed for an answer already cached", got)
	}
	if snap := f.Metrics().Snapshot(); snap.Misses != 1 || snap.Hits != 1 {
		t.Errorf("misses = %d, hits = %d; want 1 and 1", snap.Misses, snap.Hits)
	}
}

// TestServeStaleEDESemantics is the satellite table test: EDE 3 on stale
// positive answers, EDE 19 on stale NXDOMAIN, EDE 13 + retry-delay
// EXTRA-TEXT on error-cache hits — with the code points cross-checked
// against the internal/ede registry.
func TestServeStaleEDESemantics(t *testing.T) {
	// Registry cross-check: the constants this frontend emits must be the
	// registered code points from RFC 8914 Table 1.
	for _, want := range []struct {
		code ede.Code
		num  uint16
		name string
	}{
		{ede.CodeStaleAnswer, 3, "Stale Answer"},
		{ede.CodeCachedError, 13, "Cached Error"},
		{ede.CodeStaleNXDOMAINAnswer, 19, "Stale NXDOMAIN Answer"},
	} {
		if uint16(want.code) != want.num {
			t.Fatalf("code point drifted: %v = %d, want %d", want.code, uint16(want.code), want.num)
		}
		info, ok := ede.Lookup(want.code)
		if !ok || info.Name != want.name {
			t.Fatalf("registry entry for %d = %+v, want %q", want.num, info, want.name)
		}
	}

	cases := []struct {
		label string
		// seed primes the cache (nil to start from an empty cache).
		seed func(qname dnswire.Name) *dnswire.Message
		// advance moves the clock between seeding and the failing query.
		advance  time.Duration
		wantCode ede.Code
		wantRC   dnswire.RCode
	}{
		{
			label:    "stale positive answer serves EDE 3",
			seed:     func(q dnswire.Name) *dnswire.Message { return positive(q, 60) },
			advance:  10 * time.Minute, // past TTL, inside the stale window
			wantCode: ede.CodeStaleAnswer,
			wantRC:   dnswire.RCodeNoError,
		},
		{
			label:    "stale NXDOMAIN serves EDE 19",
			seed:     func(q dnswire.Name) *dnswire.Message { return nxdomain(q, 60) },
			advance:  10 * time.Minute,
			wantCode: ede.CodeStaleNXDOMAINAnswer,
			wantRC:   dnswire.RCodeNXDomain,
		},
		{
			label:    "repeated failure serves EDE 13 from the error cache",
			seed:     nil,
			wantCode: ede.CodeCachedError,
			wantRC:   dnswire.RCodeServFail,
		},
	}

	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			clock := newClock()
			up := &stubUpstream{}
			f := New(up, Config{Now: clock.Now, StaleWindow: 24 * time.Hour, ErrorTTL: 30 * time.Second})
			qname := dnswire.MustName("broken.example.")

			if tc.seed != nil {
				up.set(func(_ context.Context, q dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
					return tc.seed(q), nil
				})
				if _, err := f.HandleDNS(context.Background(), query(qname.String())); err != nil {
					t.Fatal(err)
				}
				clock.Advance(tc.advance)
			}

			// Authorities go dark.
			up.set(func(_ context.Context, _ dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
				return nil, errors.New("all authorities timed out")
			})
			resp, err := f.HandleDNS(context.Background(), query(qname.String()))
			if err != nil {
				t.Fatal(err)
			}
			if tc.seed == nil {
				// First failure populates the error cache and reports the
				// transport failure; the EDE 13 appears on the *next* hit.
				hasEDE(t, resp, ede.CodeNetworkError)
				clock.Advance(5 * time.Second)
				if resp, err = f.HandleDNS(context.Background(), query(qname.String())); err != nil {
					t.Fatal(err)
				}
			}
			if resp.RCode != tc.wantRC {
				t.Fatalf("RCODE = %v, want %v", resp.RCode, tc.wantRC)
			}
			opt := hasEDE(t, resp, tc.wantCode)
			if tc.wantCode == ede.CodeCachedError {
				// The paper's Cloudflare idiom: EXTRA-TEXT is the bare
				// retry delay in seconds.
				secs, err := strconv.Atoi(opt.ExtraText)
				if err != nil || secs <= 0 || secs > 30 {
					t.Fatalf("EDE 13 EXTRA-TEXT = %q, want a retry delay in (0, 30] seconds", opt.ExtraText)
				}
				if secs != 25 {
					t.Fatalf("retry delay = %d, want 25 (30s error TTL minus 5s elapsed)", secs)
				}
			}
			if tc.wantCode == ede.CodeStaleAnswer && len(resp.Answer) == 0 {
				t.Fatal("stale serve lost the answer section")
			}
		})
	}
}

func TestStaleAnswerUsesStaleTTL(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, q dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(q, 60), nil
	})
	f := New(up, Config{Now: clock.Now})
	if _, err := f.HandleDNS(context.Background(), query("a.example.")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	up.set(func(_ context.Context, _ dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return nil, errors.New("down")
	})
	resp, err := f.HandleDNS(context.Background(), query("a.example."))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) != 1 || resp.Answer[0].TTL != 30 {
		t.Fatalf("stale answer TTL = %+v, want fixed 30", resp.Answer)
	}
	if snap := f.Metrics().Snapshot(); snap.StaleServes != 1 {
		t.Fatalf("stale serves = %d, want 1", snap.StaleServes)
	}
}

func TestUpstreamServfailKeepsDiagnosis(t *testing.T) {
	up := &stubUpstream{}
	up.set(func(_ context.Context, q dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return servfail(q), nil
	})
	f := New(up, Config{})
	resp, err := f.HandleDNS(context.Background(), query("lame.example."))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("RCODE = %v, want SERVFAIL", resp.RCode)
	}
	// The recursion's own diagnosis (EDE 22) is forwarded on first failure.
	hasEDE(t, resp, ede.CodeNoReachableAuthority)
	// And re-emitted alongside EDE 13 from the error cache afterwards.
	resp, _ = f.HandleDNS(context.Background(), query("lame.example."))
	hasEDE(t, resp, ede.CodeNoReachableAuthority)
	hasEDE(t, resp, ede.CodeCachedError)
	if got := up.calls.Load(); got != 1 {
		t.Fatalf("upstream calls = %d, want 1 (error cache must absorb the retry)", got)
	}
}

func TestOverloadShedsWithEDE23(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	up := &stubUpstream{}
	up.set(func(_ context.Context, q dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		close(started)
		<-release
		return positive(q, 60), nil
	})
	f := New(up, Config{MaxInflight: 1})

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := f.HandleDNS(context.Background(), query("slow.example.")); err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	<-started

	// The semaphore slot is taken: a different question must be shed, not
	// queued.
	resp, err := f.HandleDNS(context.Background(), query("other.example."))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("RCODE = %v, want SERVFAIL", resp.RCode)
	}
	opt := hasEDE(t, resp, ede.CodeNetworkError)
	if opt.ExtraText == "" {
		t.Fatal("overload shed must say why in EXTRA-TEXT")
	}
	close(release)
	<-done
	if snap := f.Metrics().Snapshot(); snap.Overloads != 1 {
		t.Fatalf("metrics = %+v, want 1 overload", snap)
	}
	reg := telemetry.NewRegistry()
	f.RegisterMetrics(reg)
	if v, _ := reg.Value("edelab_frontend_inflight_high_water"); v != 1 {
		t.Fatalf("edelab_frontend_inflight_high_water = %v, want 1", v)
	}
}

func TestDeadlineExceededThenErrorCached(t *testing.T) {
	up := &stubUpstream{}
	up.set(func(ctx context.Context, _ dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	f := New(up, Config{QueryTimeout: 10 * time.Millisecond})
	resp, err := f.HandleDNS(context.Background(), query("tarpit.example."))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("RCODE = %v, want SERVFAIL", resp.RCode)
	}
	opt := hasEDE(t, resp, ede.CodeNetworkError)
	if opt.ExtraText == "" {
		t.Fatal("deadline failure must carry EXTRA-TEXT")
	}
	if snap := f.Metrics().Snapshot(); snap.DeadlineExceeded != 1 {
		t.Fatalf("deadline count = %d, want 1", snap.DeadlineExceeded)
	}
	// Second query is absorbed by the error cache.
	resp, _ = f.HandleDNS(context.Background(), query("tarpit.example."))
	hasEDE(t, resp, ede.CodeCachedError)
	if got := up.calls.Load(); got != 1 {
		t.Fatalf("upstream calls = %d, want 1", got)
	}
}

func TestNegativeCaching(t *testing.T) {
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, q dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return nxdomain(q, 300), nil
	})
	f := New(up, Config{Now: clock.Now})
	if _, err := f.HandleDNS(context.Background(), query("nx.example.")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(4 * time.Minute) // inside the 300s SOA minimum
	resp, err := f.HandleDNS(context.Background(), query("nx.example."))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("RCODE = %v, want NXDOMAIN", resp.RCode)
	}
	if got := up.calls.Load(); got != 1 {
		t.Fatalf("upstream calls = %d, want 1 (negative cache must hold)", got)
	}
}

func TestEvictionBound(t *testing.T) {
	up := &stubUpstream{}
	up.set(func(_ context.Context, q dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(q, 300), nil
	})
	f := New(up, Config{Capacity: 4})
	for i := 0; i < 20; i++ {
		if _, err := f.HandleDNS(context.Background(), query(fmt.Sprintf("h%d.example.", i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.CacheLen(); n > 4 {
		t.Fatalf("cache grew to %d entries, capacity is 4", n)
	}
	if snap := f.Metrics().Snapshot(); snap.Evictions != 16 {
		t.Fatalf("evictions = %d, want 16", snap.Evictions)
	}
}

// TestCapacityBoundsTheTotal: Capacity is the cache's bound whatever the
// shard count, including one the shard count does not divide (5,000 over
// 64), and a full cache holds exactly Capacity entries. (The shard count
// itself is ttlmap's TestShardCount.)
func TestCapacityBoundsTheTotal(t *testing.T) {
	e := &entry{rcode: dnswire.RCodeNoError, expiresAt: time.Unix(300, 0)}
	for _, capacity := range []int{1, 10, 100, 5000, 16384} {
		f := New(&stubUpstream{}, Config{Capacity: capacity, Now: func() time.Time { return time.Unix(0, 0) }})
		for round := 0; round < 10; round++ {
			for i := 0; i < capacity; i++ {
				f.keep(key{name: dnswire.MustName(fmt.Sprintf("d%d-%d.example.", round, i)), qtype: dnswire.TypeA}, e, time.Unix(0, 0))
			}
			if n := f.CacheLen(); n > capacity {
				t.Fatalf("capacity %d: %d entries after %d inserts", capacity, n, (round+1)*capacity)
			}
		}
		if n := f.CacheLen(); n != capacity {
			t.Errorf("capacity %d: a full cache holds %d entries", capacity, n)
		}
	}
}

func TestLRUKeepsHotEntries(t *testing.T) {
	up := &stubUpstream{}
	up.set(func(_ context.Context, q dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(q, 300), nil
	})
	f := New(up, Config{Capacity: 2})
	hot := query("hot.example.")
	f.HandleDNS(context.Background(), hot)
	f.HandleDNS(context.Background(), query("b.example."))
	f.HandleDNS(context.Background(), hot) // a fresh hit: the next eviction spares it
	f.HandleDNS(context.Background(), query("c.example."))
	before := up.calls.Load()
	f.HandleDNS(context.Background(), hot)
	if up.calls.Load() != before {
		t.Fatal("hot entry was evicted despite recent use")
	}
}

func TestNonEDNSClientGetsNoOPTOrRRSIG(t *testing.T) {
	up := &stubUpstream{}
	up.set(func(_ context.Context, q dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		m := positive(q, 300)
		m.Answer = append(m.Answer, dnswire.RR{
			Name: q, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.RRSIG{TypeCovered: dnswire.TypeA, SignerName: q},
		})
		return m, nil
	})
	f := New(up, Config{})
	q := query("plain.example.")
	q.OPT = nil // classic non-EDNS client
	resp, err := f.HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.OPT != nil {
		t.Fatal("non-EDNS client must not receive an OPT record")
	}
	for _, rr := range resp.Answer {
		if rr.Type() == dnswire.TypeRRSIG {
			t.Fatal("non-DO client must not receive RRSIGs")
		}
	}
}

func TestMalformedQueries(t *testing.T) {
	up := &stubUpstream{}
	up.set(func(_ context.Context, q dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(q, 300), nil
	})
	f := New(up, Config{})
	q := query("x.example.")
	q.Question = nil
	resp, err := f.HandleDNS(context.Background(), q)
	if err != nil || resp.RCode != dnswire.RCodeFormErr {
		t.Fatalf("no-question query: %v / %v, want FORMERR", resp, err)
	}
	q2 := query("x.example.")
	q2.Opcode = 2 // STATUS
	resp, err = f.HandleDNS(context.Background(), q2)
	if err != nil || resp.RCode != dnswire.RCodeNotImp {
		t.Fatalf("non-QUERY opcode: %v / %v, want NOTIMP", resp, err)
	}
	if up.calls.Load() != 0 {
		t.Fatal("malformed queries must not reach the upstream")
	}
}

// TestConcurrentMixedLoad exercises every serving path at once under the
// race detector: hits, misses, coalescing, failures, stale serves, and
// evictions.
func TestConcurrentMixedLoad(t *testing.T) {
	clock := newClock()
	var failing atomic.Bool
	up := &stubUpstream{}
	up.set(func(_ context.Context, q dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		if failing.Load() {
			return nil, errors.New("authorities dark")
		}
		return positive(q, 60), nil
	})
	f := New(up, Config{Capacity: 8, MaxInflight: 8, Now: clock.Now})

	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("host%d.example.", i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := names[(seed+i)%len(names)]
				resp, err := f.HandleDNS(context.Background(), query(n))
				if err != nil || resp == nil {
					t.Errorf("query %s: %v / %v", n, resp, err)
					return
				}
				if i == 100 {
					clock.Advance(2 * time.Minute) // expire everything
					failing.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	snap := f.Metrics().Snapshot()
	if snap.Queries != 8*200 {
		t.Fatalf("queries = %d, want %d", snap.Queries, 8*200)
	}
	if snap.Inflight != 0 {
		t.Fatalf("inflight gauge leaked: %d", snap.Inflight)
	}
}

func TestSnapshotEDECounts(t *testing.T) {
	up := &stubUpstream{}
	up.set(func(_ context.Context, _ dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return nil, errors.New("down")
	})
	f := New(up, Config{})
	f.HandleDNS(context.Background(), query("dead.example.")) // EDE 23
	f.HandleDNS(context.Background(), query("dead.example.")) // EDE 23 + 13
	snap := f.Metrics().Snapshot()
	if snap.EDECounts[uint16(ede.CodeNetworkError)] != 2 {
		t.Fatalf("EDE 23 count = %d, want 2", snap.EDECounts[uint16(ede.CodeNetworkError)])
	}
	if snap.EDECounts[uint16(ede.CodeCachedError)] != 1 {
		t.Fatalf("EDE 13 count = %d, want 1", snap.EDECounts[uint16(ede.CodeCachedError)])
	}
}
