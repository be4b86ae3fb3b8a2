package resolver

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/netsim"
)

// noSleep is the chaos-test backoff clock: instantaneous.
func noSleep(context.Context, time.Duration) {}

func TestTransportRetriesRescueLoss(t *testing.T) {
	w := buildWorld(t)
	w.net.SetFaults(netsim.NewFaultPlan(11, netsim.FaultProfile{Loss: 0.3}))
	r := w.resolver(ProfileCloudflare())
	r.Transport = &TransportConfig{Retries: 6, Sleep: noSleep}

	for i := 0; i < 20; i++ {
		res := r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
		if res.Msg.RCode != dnswire.RCodeNoError {
			t.Fatalf("iteration %d: rcode = %s, conditions = %v under 30%% loss with 6 retries",
				i, res.Msg.RCode, res.Conditions)
		}
		r.Cache.Flush()
	}
}

func TestTransportGarbleYieldsNetworkError(t *testing.T) {
	w := buildWorld(t)
	plan := netsim.NewFaultPlan(11, netsim.FaultProfile{})
	plan.Override(w.exAddr, netsim.FaultProfile{Garble: 1})
	w.net.SetFaults(plan)
	r := w.resolver(ProfileCloudflare())
	r.Transport = &TransportConfig{Retries: 2, Sleep: noSleep}

	res := r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %s, want SERVFAIL", res.Msg.RCode)
	}
	if !hasCondition(res.Conditions, ConditionNetworkError) {
		t.Fatalf("conditions = %v, want ConditionNetworkError", res.Conditions)
	}
	if hasCondition(res.Conditions, ConditionUnreachableAllTimeout) {
		t.Fatalf("garbled datagrams must not be classified as silence: %v", res.Conditions)
	}
	codes := res.Codes()
	if len(codes) == 0 || !containsCode(codes, uint16(ede.CodeNetworkError)) {
		t.Fatalf("EDE codes = %v, want Network Error (23)", codes)
	}
	if containsCode(codes, uint16(ede.CodeNoReachableAuthority)) {
		t.Fatalf("EDE codes = %v: garble must be 23, not 22", codes)
	}
}

func TestTransportBlackoutYieldsNoReachableAuthority(t *testing.T) {
	w := buildWorld(t)
	plan := netsim.NewFaultPlan(11, netsim.FaultProfile{})
	plan.Override(w.exAddr, netsim.FaultProfile{Loss: 1})
	w.net.SetFaults(plan)
	r := w.resolver(ProfileCloudflare())
	r.Transport = &TransportConfig{Retries: 3, Sleep: noSleep}

	res := r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if !hasCondition(res.Conditions, ConditionUnreachableAllTimeout) {
		t.Fatalf("conditions = %v, want ConditionUnreachableAllTimeout", res.Conditions)
	}
	if !containsCode(res.Codes(), uint16(ede.CodeNoReachableAuthority)) {
		t.Fatalf("EDE codes = %v, want No Reachable Authority (22)", res.Codes())
	}
}

func TestTransportTruncationFallsBackToStream(t *testing.T) {
	w := buildWorld(t)
	w.net.SetFaults(netsim.NewFaultPlan(11, netsim.FaultProfile{Truncate: true}))
	r := w.resolver(ProfileCloudflare())

	res := r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %s, conditions = %v: TC must trigger TCP fallback", res.Msg.RCode, res.Conditions)
	}
	if len(res.Msg.Answer) == 0 {
		t.Fatal("no answer after stream fallback")
	}
	if !res.Secure {
		t.Fatal("stream fallback lost the validated chain")
	}
	if got := w.net.Stats().Truncated; got == 0 {
		t.Fatal("truncation fault never fired")
	}
}

func TestTransportCancellationPropagates(t *testing.T) {
	w := buildWorld(t)
	r := w.resolver(ProfileCloudflare())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := r.Resolve(ctx, dnswire.MustName("www.example.com"), dnswire.TypeA)
	if !res.Cancelled {
		t.Fatalf("Cancelled = false, conditions = %v", res.Conditions)
	}
	if res.Msg.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %s, want SERVFAIL", res.Msg.RCode)
	}
	if !hasCondition(res.Conditions, ConditionCancelled) {
		t.Fatalf("conditions = %v, want ConditionCancelled", res.Conditions)
	}

	// A cancelled attempt must not poison the error cache: a fresh context
	// resolves cleanly.
	res = r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError {
		t.Fatalf("post-cancel rcode = %s, conditions = %v (error cache poisoned?)", res.Msg.RCode, res.Conditions)
	}
	if hasCondition(res.Conditions, ConditionCachedError) {
		t.Fatalf("cancelled resolution was cached as an error: %v", res.Conditions)
	}
}

func TestTransportRetryBudgetBounds(t *testing.T) {
	w := buildWorld(t)
	w.net.SetFaults(netsim.NewFaultPlan(11, netsim.FaultProfile{Loss: 1}))
	r := w.resolver(ProfileCloudflare())
	r.Transport = &TransportConfig{Retries: 10, RetryBudget: 4, Sleep: noSleep}

	res := r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %s, want SERVFAIL", res.Msg.RCode)
	}
	if got := r.QueryCount.Load(); got > 4 {
		t.Fatalf("QueryCount = %d, want <= RetryBudget 4", got)
	}
}

func TestTransportBackoffDeterministic(t *testing.T) {
	tc := &TransportConfig{Backoff: 10 * time.Millisecond}
	addr := netip.MustParseAddr("198.18.10.3")

	if d := tc.backoffFor(addr, 0); d != 0 {
		t.Fatalf("first attempt backoff = %v, want 0", d)
	}
	var prev []time.Duration
	for run := 0; run < 2; run++ {
		var seq []time.Duration
		for attempt := 1; attempt <= 6; attempt++ {
			d := tc.backoffFor(addr, attempt)
			base := min(tc.Backoff<<(attempt-1), 80*time.Millisecond)
			if d < base/2 || d > base {
				t.Fatalf("attempt %d backoff %v outside [%v, %v]", attempt, d, base/2, base)
			}
			seq = append(seq, d)
		}
		if run == 1 {
			for i := range seq {
				if seq[i] != prev[i] {
					t.Fatalf("backoff not deterministic: run0[%d]=%v run1[%d]=%v", i, prev[i], i, seq[i])
				}
			}
		}
		prev = seq
	}

	other := netip.MustParseAddr("198.18.10.4")
	same := true
	for attempt := 1; attempt <= 6; attempt++ {
		if tc.backoffFor(addr, attempt) != tc.backoffFor(other, attempt) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("jitter identical across different servers — not decorrelated")
	}
}

func TestTransportSRTTPrefersFasterServer(t *testing.T) {
	var tab srttTable
	fast := netip.MustParseAddr("198.18.10.5")
	slow := netip.MustParseAddr("198.18.10.6")
	servers := []netip.Addr{slow, fast}

	// No observations: original order preserved (the Table 4 invariant).
	got := tab.order(servers)
	if got[0] != slow || got[1] != fast {
		t.Fatalf("empty table must preserve order, got %v", got)
	}

	tab.observe(slow, 150*time.Millisecond)
	tab.observe(fast, 10*time.Millisecond)
	got = tab.order(servers)
	if got[0] != fast {
		t.Fatalf("order = %v, want fastest first", got)
	}

	// Timeouts decay preference: penalize the fast one repeatedly.
	for i := 0; i < 6; i++ {
		tab.penalize(fast)
	}
	got = tab.order(servers)
	if got[0] != slow {
		t.Fatalf("order after penalties = %v, want the formerly-slow server first", got)
	}

	// Penalizing an unknown server must not create an entry.
	unknown := netip.MustParseAddr("198.18.10.7")
	tab.penalize(unknown)
	if tab.get(unknown) != 0 {
		t.Fatal("penalize created an entry for an unobserved server")
	}
}

func TestTransportTimeoutConfigurable(t *testing.T) {
	w := buildWorld(t)
	// 50ms of injected latency exceeds a 20ms per-attempt timeout...
	w.net.SetFaults(netsim.NewFaultPlan(11, netsim.FaultProfile{Latency: 50 * time.Millisecond}))
	r := w.resolver(ProfileCloudflare())
	r.Transport = &TransportConfig{Timeout: 20 * time.Millisecond, Sleep: noSleep}
	res := r.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if !hasCondition(res.Conditions, ConditionUnreachableAllTimeout) {
		t.Fatalf("conditions = %v, want all-timeout under tight per-attempt timeout", res.Conditions)
	}

	// ...but fits a roomy one.
	r2 := w.resolver(ProfileCloudflare())
	r2.Transport = &TransportConfig{Timeout: 500 * time.Millisecond, Sleep: noSleep}
	res = r2.Resolve(context.Background(), dnswire.MustName("www.example.com"), dnswire.TypeA)
	if res.Msg.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %s, conditions = %v with 500ms timeout over 50ms latency", res.Msg.RCode, res.Conditions)
	}
}

func hasCondition(conds []Condition, want Condition) bool {
	for _, c := range conds {
		if c == want {
			return true
		}
	}
	return false
}

func containsCode(codes []uint16, want uint16) bool {
	for _, c := range codes {
		if c == want {
			return true
		}
	}
	return false
}
