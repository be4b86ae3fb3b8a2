package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
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

// vclock is a shared virtual serving clock over the frozen testbed instant:
// every replica (and the single-replica reference) reads the same offset,
// so TTL decay and EDE 13 retry countdowns are deterministic and equal.
type vclock struct {
	base   time.Time
	offset atomic.Int64
}

func newVClock() *vclock {
	return &vclock{base: time.Unix(int64(testbed.Now), 0)}
}

func (c *vclock) Now() time.Time { return c.base.Add(time.Duration(c.offset.Load())) }

func (c *vclock) Advance(d time.Duration) { c.offset.Add(int64(d)) }

// countingUpstream wraps a resolver upstream and counts recursions — the
// probe for "singleflight stays global through the peek path".
type countingUpstream struct {
	up    forwarder.ResolverUpstream
	calls atomic.Int64
}

func (u *countingUpstream) Exchange(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	u.calls.Add(1)
	return u.up.Exchange(ctx, qname, qtype)
}

func (u *countingUpstream) ExchangeWithOptions(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, opts forwarder.Options) (*dnswire.Message, error) {
	u.calls.Add(1)
	return u.up.ExchangeWithOptions(ctx, qname, qtype, opts)
}

// buildCluster wires n in-process replicas over tb with a shared clock.
func buildCluster(t *testing.T, tb *testbed.Testbed, clock *vclock, n int, cfg Config) (*Cluster, []*Replica, []*countingUpstream) {
	t.Helper()
	cfg.Frontend.Now = clock.Now
	cl := New(cfg)
	var reps []*Replica
	var ups []*countingUpstream
	for i := 0; i < n; i++ {
		r := tb.NewResolver(resolver.ProfileCloudflare())
		r.Now = clock.Now
		up := &countingUpstream{up: forwarder.ResolverUpstream{R: r}}
		rep, err := cl.AddLocal(fmt.Sprintf("r%d", i), up)
		if err != nil {
			t.Fatalf("AddLocal: %v", err)
		}
		reps = append(reps, rep)
		ups = append(ups, up)
	}
	return cl, reps, ups
}

func packZeroID(t *testing.T, m *dnswire.Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	b[0], b[1] = 0, 0
	return b
}

// TestClusterTransparency is the black-box acceptance proof: for every
// testbed case x {cd, !cd}, the wire-visible answer through the 3-replica
// router is byte-identical (modulo ID) to a single-replica frontend's —
// cold, warm, and during a drain of the owning replica.
func TestClusterTransparency(t *testing.T) {
	// One testbed for both sides: zone keys are generated at build time, so
	// two builds sign differently. The reference frontend and the cluster
	// replicas share the authoritative infrastructure but no cache state.
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("build testbed: %v", err)
	}
	clock := newVClock()

	refRes := tb.NewResolver(resolver.ProfileCloudflare())
	refRes.Now = clock.Now
	ref := frontend.New(forwarder.ResolverUpstream{R: refRes}, frontend.Config{Now: clock.Now})

	cl, _, _ := buildCluster(t, tb, clock, 3, Config{Seed: 1})

	ctx := context.Background()
	id := uint16(1)
	for _, c := range tb.Cases {
		for _, cd := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cd=%v", c.Label, cd), func(t *testing.T) {
				ask := func(h interface {
					HandleDNS(context.Context, *dnswire.Message) (*dnswire.Message, error)
				}) *dnswire.Message {
					q := dnswire.NewQuery(id, c.Query, dnswire.TypeA)
					q.CheckingDisabled = cd
					resp, err := h.HandleDNS(ctx, q)
					if err != nil {
						t.Fatalf("HandleDNS(%s): %v", c.Query, err)
					}
					return resp
				}
				// Pass 1 (cold) and pass 2 (warm: cache hits, error-cache
				// EDE 13) must agree on both sides.
				for pass := 1; pass <= 2; pass++ {
					want := packZeroID(t, ask(ref))
					got := packZeroID(t, ask(cl))
					if !bytes.Equal(want, got) {
						t.Fatalf("pass %d: cluster answer differs from single replica\nref: %x\ncl:  %x", pass, want, got)
					}
					id++
				}
				// Pass 3: drain the owning replica; the takeover answer
				// (peeked from the draining owner's cache) must still match.
				owner := cl.OwnerID(c.Query, dnswire.TypeA, cd)
				if err := cl.Drain(ctx, owner); err != nil {
					t.Fatalf("drain %s: %v", owner, err)
				}
				want := packZeroID(t, ask(ref))
				got := packZeroID(t, ask(cl))
				if !bytes.Equal(want, got) {
					t.Fatalf("drain pass: cluster answer differs from single replica\nref: %x\ncl:  %x", want, got)
				}
				if err := cl.Rejoin(owner); err != nil {
					t.Fatalf("rejoin %s: %v", owner, err)
				}
				id++
			})
		}
	}
	if clMetric(t, cl, "edelab_cluster_peek_total", telemetry.L("result", "hit")) == 0 {
		t.Error("expected cross-replica peek hits during drain passes")
	}
}

// clMetric reads one of the router's metric families as a scrape does.
func clMetric(t *testing.T, cl *Cluster, name string, labels ...telemetry.Label) float64 {
	t.Helper()
	reg := telemetry.NewRegistry()
	cl.RegisterMetrics(reg)
	v, ok := reg.Value(name, labels...)
	if !ok {
		t.Fatalf("metric %s%v not registered", name, labels)
	}
	return v
}

func caseByLabel(t *testing.T, tb *testbed.Testbed, label string) testbed.Case {
	t.Helper()
	for _, c := range tb.Cases {
		if c.Label == label {
			return c
		}
	}
	t.Fatalf("no testbed case %q", label)
	return testbed.Case{}
}

// TestClusterDrainTakeoverServeStale is the chaos acceptance: drain the
// owner of an expired entry with the backends unreachable; the takeover
// replica peeks the draining owner's cache and serves the entry stale with
// EDE 3.
func TestClusterDrainTakeoverServeStale(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("build testbed: %v", err)
	}
	clock := newVClock()
	cl, _, _ := buildCluster(t, tb, clock, 3, Config{Seed: 1})
	c := caseByLabel(t, tb, "valid")
	ctx := context.Background()

	q := dnswire.NewQuery(10, c.Query, dnswire.TypeA)
	resp, err := cl.HandleDNS(ctx, q)
	if err != nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("warm query: err=%v rcode=%v", err, resp.RCode)
	}

	owner := cl.OwnerID(c.Query, dnswire.TypeA, false)
	if err := cl.Drain(ctx, owner); err != nil {
		t.Fatalf("drain %s: %v", owner, err)
	}
	// Backends unreachable + entry past its 300s TTL: the only way to
	// answer is the draining owner's entry, peeked and served stale.
	tb.Net.SetFaults(netsim.NewFaultPlan(1, netsim.FaultProfile{Loss: 1}))
	clock.Advance(400 * time.Second)

	q = dnswire.NewQuery(99, c.Query, dnswire.TypeA)
	resp, err = cl.HandleDNS(ctx, q)
	if err != nil {
		t.Fatalf("takeover query: %v", err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answer) == 0 {
		t.Fatalf("takeover query: rcode=%v answers=%d, want stale NOERROR answer", resp.RCode, len(resp.Answer))
	}
	codes := resp.EDECodes()
	found := false
	for _, code := range codes {
		if code == uint16(ede.CodeStaleAnswer) {
			found = true
		}
	}
	if !found {
		t.Fatalf("takeover answer EDEs %v, want %d (Stale Answer)", codes, ede.CodeStaleAnswer)
	}
	if clMetric(t, cl, "edelab_cluster_takeovers_total") == 0 {
		t.Fatal("takeover counter did not move")
	}
	if clMetric(t, cl, "edelab_cluster_peek_total", telemetry.L("result", "hit")) == 0 {
		t.Fatal("the takeover answer was not peeked from the draining owner")
	}
}

// TestClusterSingleflightGlobal: a drained owner's cache keeps serving via
// peek (no second recursion), and a cold rejoined owner rides the covering
// replica's cache instead of stampeding upstream.
func TestClusterSingleflightGlobal(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("build testbed: %v", err)
	}
	clock := newVClock()
	cl, reps, ups := buildCluster(t, tb, clock, 2, Config{Seed: 1})
	c := caseByLabel(t, tb, "valid")
	ctx := context.Background()

	total := func() int64 { return ups[0].calls.Load() + ups[1].calls.Load() }

	q := dnswire.NewQuery(1, c.Query, dnswire.TypeA)
	if _, err := cl.HandleDNS(ctx, q); err != nil {
		t.Fatal(err)
	}
	afterFirst := total()
	if afterFirst == 0 {
		t.Fatal("first query did not recurse")
	}

	owner := cl.OwnerID(c.Query, dnswire.TypeA, false)
	if err := cl.Drain(ctx, owner); err != nil {
		t.Fatal(err)
	}
	q = dnswire.NewQuery(2, c.Query, dnswire.TypeA)
	resp, err := cl.HandleDNS(ctx, q)
	if err != nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("drain-time query: err=%v rcode=%v", err, resp.RCode)
	}
	if got := total(); got != afterFirst {
		t.Fatalf("drain-time query recursed (%d -> %d upstream calls): singleflight not global", afterFirst, got)
	}

	// Cold rejoin: flush the owner's cache to model a restarted process,
	// rejoin, and query — the owner must peek the entry the covering
	// replica took from it, not recurse.
	var ownerRep *Replica
	for _, rep := range reps {
		if rep.n.id == owner {
			ownerRep = rep
		}
	}
	ownerRep.Frontend().FlushCache()
	if err := cl.Rejoin(owner); err != nil {
		t.Fatal(err)
	}
	q = dnswire.NewQuery(3, c.Query, dnswire.TypeA)
	resp, err = cl.HandleDNS(ctx, q)
	if err != nil || resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("rejoin query: err=%v rcode=%v", err, resp.RCode)
	}
	if got := total(); got != afterFirst {
		t.Fatalf("rejoined owner stampeded upstream (%d -> %d calls)", afterFirst, got)
	}
}

// TestClusterDrainRejoinUnderLoad: concurrent clients through a rolling
// restart of one replica see zero errors, and the rejoined replica takes
// its ring range back.
func TestClusterDrainRejoinUnderLoad(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("build testbed: %v", err)
	}
	clock := newVClock()
	cl, reps, _ := buildCluster(t, tb, clock, 3, Config{Seed: 1})
	ctx := context.Background()

	// Load names: the testbed cases that answer cleanly (the broken-DNSSEC
	// cases SERVFAIL by design and would mask real routing errors).
	var names []dnswire.Name
	for i, c := range tb.Cases {
		q := dnswire.NewQuery(uint16(60000+i), c.Query, dnswire.TypeA)
		resp, err := cl.HandleDNS(ctx, q)
		if err != nil {
			t.Fatalf("warm %s: %v", c.Query, err)
		}
		if resp.RCode == dnswire.RCodeNoError || resp.RCode == dnswire.RCodeNXDomain {
			names = append(names, c.Query)
		}
	}
	if len(names) < 8 {
		t.Fatalf("only %d clean load names", len(names))
	}

	const workers = 8
	const perWorker = 100
	var bad atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				q := dnswire.NewQuery(uint16(w*perWorker+i), names[(w+i)%len(names)], dnswire.TypeA)
				resp, err := cl.HandleDNS(ctx, q)
				if err != nil || resp == nil ||
					(resp.RCode != dnswire.RCodeNoError && resp.RCode != dnswire.RCodeNXDomain) {
					bad.Add(1)
				}
			}
		}(w)
	}
	close(start)

	// Rolling restart of r1 mid-load.
	if err := cl.Drain(ctx, "r1"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := cl.Rejoin("r1"); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	wg.Wait()

	if n := bad.Load(); n != 0 {
		t.Fatalf("%d client-visible errors during rolling restart, want 0", n)
	}

	// Post-rejoin sweep: every replica serves its ring range again.
	before := make([]uint64, len(reps))
	for i, rep := range reps {
		before[i] = rep.n.routed.Load()
	}
	for i, name := range names {
		q := dnswire.NewQuery(uint16(5000+i), name, dnswire.TypeA)
		if _, err := cl.HandleDNS(ctx, q); err != nil {
			t.Fatalf("post-rejoin query: %v", err)
		}
	}
	for i, rep := range reps {
		if rep.n.routed.Load() == before[i] {
			t.Errorf("replica %s took no traffic after rejoin", rep.n.id)
		}
	}
}

// TestClusterServeWire: the router's wire fast path serves from the owning
// replica's pre-packed image, byte-identical to the slow path.
func TestClusterServeWire(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatalf("build testbed: %v", err)
	}
	clock := newVClock()
	cl, _, _ := buildCluster(t, tb, clock, 3, Config{Seed: 1})
	c := caseByLabel(t, tb, "valid")
	ctx := context.Background()

	// First query captures the wire image on the owner.
	q := dnswire.NewQuery(7, c.Query, dnswire.TypeA)
	slow, err := cl.HandleDNS(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	slowWire := packZeroID(t, slow)

	q2 := dnswire.NewQuery(7, c.Query, dnswire.TypeA)
	qw, err := q2.Pack()
	if err != nil {
		t.Fatal(err)
	}
	wq, ok := dnswire.ScanQuery(qw)
	if !ok {
		t.Fatal("ScanQuery rejected own query")
	}
	out, ok := cl.ServeWire(wq, 65535, nil)
	if !ok {
		t.Fatal("wire fast path missed after a fresh slow-path hit")
	}
	out[0], out[1] = 0, 0
	if !bytes.Equal(out, slowWire) {
		t.Fatalf("wire path differs from slow path\nslow: %x\nwire: %x", slowWire, out)
	}
}

// TestFailReplyMatchesTransportShed: the router's own failure answer is the
// SERVFAIL + EDE 23 idiom a transport shed sends, header flags and RA
// included.
func TestFailReplyMatchesTransportShed(t *testing.T) {
	q := dnswire.NewQuery(9, dnswire.MustName("a.example"), dnswire.TypeA)
	fail, err := New(Config{}).HandleDNS(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !fail.RecursionAvailable || fail.RCode != dnswire.RCodeServFail || len(fail.EDEs()) != 1 || fail.EDEs()[0].InfoCode != uint16(ede.CodeNetworkError) {
		t.Fatalf("no-replicas reply: RA %t, %s, EDEs %v; want RA, SERVFAIL, EDE 23", fail.RecursionAvailable, fail.RCode, fail.EDECodes())
	}

	// A transport shed: the door's 512 UDP slots are parked on queries that
	// never return, so the 513th is shed.
	park := make(chan struct{})
	defer close(park)
	reg := telemetry.NewRegistry()
	srv := transport.NewServer(transport.Config{
		Handler: netsim.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			select {
			case <-park:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		}),
		Registry: reg,
	})
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go srv.ServeUDP(ctx, conn)
	addr := conn.LocalAddr().String()
	parked, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer parked.Close()
	parkQueries(t, parked, 512, func() int {
		v, _ := reg.Value("edelab_frontdoor_queries_total", telemetry.L("transport", transport.TransportUDP))
		return int(v)
	})
	shed, err := transport.QueryUDP(ctx, addr, q)
	if err != nil {
		t.Fatal(err)
	}

	a, b := packZeroID(t, fail), packZeroID(t, shed)
	if !bytes.Equal(a[2:4], b[2:4]) {
		t.Fatalf("header flags %x, want the transport shed's %x", a[2:4], b[2:4])
	}
}

// parkQueries sends queries from conn until counted, the door's query
// count, reads n: in rounds of at most 64 datagrams, each waited for, so the
// door's socket buffer does not overflow; a datagram the kernel drops anyway
// is sent again once the count has stood still for 100 ms.
func parkQueries(t *testing.T, conn net.Conn, n int, counted func() int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	id := uint16(0)
	for got := counted(); got < n; {
		want := min(got+64, n)
		for ; got < want; got++ {
			id++
			wire, err := dnswire.NewQuery(id, "park.example.", dnswire.TypeA).Pack()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(wire); err != nil {
				t.Fatal(err)
			}
		}
		last, moved := counted(), time.Now()
		for last < want && time.Since(moved) < 100*time.Millisecond {
			if time.Now().After(deadline) {
				t.Fatalf("the door counted %d of %d queries", last, n)
			}
			time.Sleep(time.Millisecond)
			if c := counted(); c != last {
				last, moved = c, time.Now()
			}
		}
		got = last
	}
}

// Drain marks id draining and waits until its routed inflight count hits
// zero: an in-process rolling restart, which the takeover tests drive. A
// serving replica drains over the remote protocol (/drain, then /leave).
// The cache stays peekable.
func (c *Cluster) Drain(ctx context.Context, id string) error {
	if err := c.MarkDraining(id); err != nil {
		return err
	}
	c.mu.Lock()
	nd := c.findLocked(id)
	c.mu.Unlock()
	for nd.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}
