package netsim

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

func faultTestNet(t *testing.T) (*Network, netip.Addr) {
	t.Helper()
	n := New(42)
	addr := netip.MustParseAddr("198.18.9.9")
	n.Register(addr, HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		resp := &dnswire.Message{
			ID:       q.ID,
			Response: true,
			Question: q.Question,
			OPT:      &dnswire.OPT{UDPSize: 1232},
		}
		return resp, nil
	}))
	return n, addr
}

func faultQuery(name string) *dnswire.Message {
	return &dnswire.Message{
		ID:       7,
		Question: []dnswire.Question{{Name: dnswire.MustName(name), Type: dnswire.TypeA, Class: dnswire.ClassIN}},
		OPT:      &dnswire.OPT{UDPSize: 1232},
	}
}

// dropSequence records which of the first k queries are dropped.
func dropSequence(t *testing.T, seed uint64, fp FaultProfile, k int) []bool {
	t.Helper()
	n, addr := faultTestNet(t)
	n.SetFaults(NewFaultPlan(seed, fp))
	out := make([]bool, k)
	for i := range out {
		_, _, err := n.Exchange(context.Background(), addr, faultQuery("seq.test."))
		out[i] = err != nil
	}
	return out
}

func TestFaultDeterministicReplay(t *testing.T) {
	fp := FaultProfile{Loss: 0.5, Garble: 0.2}
	a := dropSequence(t, 99, fp, 200)
	b := dropSequence(t, 99, fp, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at query %d", i)
		}
	}
	c := dropSequence(t, 100, fp, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-query fault sequences")
	}
}

func TestFaultFlapCycle(t *testing.T) {
	seq := dropSequence(t, 1, FaultProfile{FlapUp: 3, FlapDown: 2}, 10)
	want := []bool{false, false, false, true, true, false, false, false, true, true}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("flap 3:2 query %d: dropped=%v, want %v (seq %v)", i, seq[i], want[i], seq)
		}
	}
}

func TestFaultBurst(t *testing.T) {
	// burst=4:2 — every 4th query starts a run of 2 drops.
	seq := dropSequence(t, 1, FaultProfile{BurstEvery: 4, BurstLen: 2}, 10)
	want := []bool{false, false, false, false, true, true, false, false, true, true}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("burst 4:2 query %d: dropped=%v, want %v (seq %v)", i, seq[i], want[i], seq)
		}
	}
}

func TestFaultDropAfter(t *testing.T) {
	seq := dropSequence(t, 1, FaultProfile{DropAfter: 3}, 6)
	want := []bool{false, false, false, true, true, true}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("dieafter=3 query %d: dropped=%v, want %v", i, seq[i], want[i])
		}
	}
}

func TestFaultTruncateAndStreamBypass(t *testing.T) {
	n, addr := faultTestNet(t)
	n.SetFaults(NewFaultPlan(7, FaultProfile{Truncate: true}))

	resp, _, err := n.Exchange(context.Background(), addr, faultQuery("tc.test."))
	if err != nil {
		t.Fatalf("datagram exchange: %v", err)
	}
	if !resp.Truncated {
		t.Fatal("datagram response not truncated under trunc profile")
	}
	if len(resp.Answer) != 0 {
		t.Fatal("truncated response kept its answer section")
	}

	resp, _, err = n.Attempt(context.Background(), addr, faultQuery("tc.test."), 0, true)
	if err != nil {
		t.Fatalf("stream exchange: %v", err)
	}
	if resp.Truncated {
		t.Fatal("stream exchange must bypass the truncation fault")
	}
	if got := n.Stats().Truncated; got != 1 {
		t.Fatalf("Stats().Truncated = %d, want 1", got)
	}
}

func TestFaultGarble(t *testing.T) {
	n, addr := faultTestNet(t)
	n.SetFaults(NewFaultPlan(7, FaultProfile{Garble: 1}))
	_, _, err := n.Exchange(context.Background(), addr, faultQuery("g.test."))
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("garble=1: err = %v, want ErrMalformed", err)
	}
	if got := n.Stats().Garbled; got != 1 {
		t.Fatalf("Stats().Garbled = %d, want 1", got)
	}
}

func TestFaultReorderSwapsResponses(t *testing.T) {
	n, addr := faultTestNet(t)
	n.SetFaults(NewFaultPlan(7, FaultProfile{Reorder: 1}))

	// First reordered response has nothing pending: it is delayed, the
	// client observes a timeout.
	_, _, err := n.Exchange(context.Background(), addr, faultQuery("first.test."))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("first reorder: err = %v, want ErrTimeout", err)
	}
	// Second query receives the delayed response for the first question.
	resp, _, err := n.Exchange(context.Background(), addr, faultQuery("second.test."))
	if err != nil {
		t.Fatalf("second reorder: %v", err)
	}
	if got := resp.Question[0].Name; got != "first.test." {
		t.Fatalf("reordered delivery answered %q, want the delayed first.test.", got)
	}
	if got := n.Stats().Reordered; got != 2 {
		t.Fatalf("Stats().Reordered = %d, want 2", got)
	}
}

func TestFaultDuplicateHitsHandlerTwice(t *testing.T) {
	n := New(42)
	addr := netip.MustParseAddr("198.18.9.10")
	var calls int
	n.Register(addr, HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		calls++
		return &dnswire.Message{ID: q.ID, Response: true, Question: q.Question, OPT: &dnswire.OPT{UDPSize: 1232}}, nil
	}))
	n.SetFaults(NewFaultPlan(7, FaultProfile{Duplicate: 1}))
	if _, _, err := n.Exchange(context.Background(), addr, faultQuery("dup.test.")); err != nil {
		t.Fatalf("dup query: %v", err)
	}
	if calls != 2 {
		t.Fatalf("handler called %d times under dup=1, want 2", calls)
	}
	if got := n.Stats().Duplicated; got != 1 {
		t.Fatalf("Stats().Duplicated = %d, want 1", got)
	}
}

func TestFaultVirtualLatency(t *testing.T) {
	n, addr := faultTestNet(t)
	n.SetFaults(NewFaultPlan(7, FaultProfile{Latency: 80 * time.Millisecond}))

	// Without a budget the latency is reported, not slept.
	start := time.Now()
	_, rtt, err := n.Exchange(context.Background(), addr, faultQuery("lat.test."))
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if rtt != 80*time.Millisecond {
		t.Fatalf("rtt = %v, want 80ms", rtt)
	}
	if wall := time.Since(start); wall > 40*time.Millisecond {
		t.Fatalf("virtual latency slept for real (%v elapsed)", wall)
	}

	// A budget tighter than the latency turns the answer into a loss; one
	// that covers it does not, however late the caller's wall clock says it is.
	_, _, err = n.Attempt(context.Background(), addr, faultQuery("lat.test."), 10*time.Millisecond, false)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("latency past budget: err = %v, want ErrTimeout", err)
	}
	n.SetFaults(NewFaultPlan(7, FaultProfile{Latency: time.Hour}))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, _, err = n.Attempt(ctx, addr, faultQuery("lat.test."), time.Hour, false); err != nil {
		t.Fatalf("latency within budget under a nearer wall-clock deadline: err = %v", err)
	}
}

func TestFaultLatencyRamp(t *testing.T) {
	n, addr := faultTestNet(t)
	n.SetFaults(NewFaultPlan(7, FaultProfile{Latency: 10 * time.Millisecond, LatencyRamp: 5 * time.Millisecond}))
	for i, want := range []time.Duration{10, 15, 20, 25} {
		_, rtt, err := n.Exchange(context.Background(), addr, faultQuery("ramp.test."))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if rtt != want*time.Millisecond {
			t.Fatalf("query %d rtt = %v, want %v", i, rtt, want*time.Millisecond)
		}
	}
}

func TestFaultOverridePerEndpoint(t *testing.T) {
	n, addr := faultTestNet(t)
	other := netip.MustParseAddr("198.18.9.11")
	n.Register(other, HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return &dnswire.Message{ID: q.ID, Response: true, Question: q.Question, OPT: &dnswire.OPT{UDPSize: 1232}}, nil
	}))
	plan := NewFaultPlan(7, FaultProfile{})
	plan.Override(addr, FaultProfile{Loss: 1})
	n.SetFaults(plan)

	if _, _, err := n.Exchange(context.Background(), addr, faultQuery("o.test.")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("overridden endpoint: err = %v, want ErrTimeout", err)
	}
	if _, _, err := n.Exchange(context.Background(), other, faultQuery("o.test.")); err != nil {
		t.Fatalf("default endpoint must stay fault-free: %v", err)
	}
}

func TestParseFaultProfileRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"loss=0.25",
		"loss=0.25,burst=40:3,lat=80ms,jitter=40ms,flap=6:2,trunc,garble=0.1,dup=0.05,reorder=0.05,dieafter=100",
		"lat=100ms,ramp=1ms",
		"trunc",
	}
	for _, spec := range specs {
		p, err := ParseFaultProfile(spec)
		if err != nil {
			t.Fatalf("ParseFaultProfile(%q): %v", spec, err)
		}
		back, err := ParseFaultProfile(p.String())
		if err != nil {
			t.Fatalf("re-parse of %q -> %q: %v", spec, p.String(), err)
		}
		if back != p {
			t.Fatalf("round-trip of %q changed the profile: %+v vs %+v", spec, p, back)
		}
	}
}

func TestParseFaultProfileErrors(t *testing.T) {
	bad := []string{
		"loss=1.5",
		"loss=x",
		"lat=-5ms",
		"lat=fast",
		"burst=3",
		"burst=0:2",
		"flap=2:-1",
		"dieafter=0",
		"trunc=yes",
		"loss",
		"bogus=1",
	}
	for _, spec := range bad {
		if _, err := ParseFaultProfile(spec); err == nil {
			t.Errorf("ParseFaultProfile(%q) accepted invalid spec", spec)
		}
	}
}
