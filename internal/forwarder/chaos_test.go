package forwarder

import (
	"context"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// TestChaosForwarderPassesEDEThroughLoss drives a forwarder over a real
// resolver on a lossy testbed: the retry policy must absorb the loss, and the
// EDE diagnosis of a misconfigured zone must arrive at the client verbatim.
func TestChaosForwarderPassesEDEThroughLoss(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb.Net.SetFaults(netsim.NewFaultPlan(17, netsim.FaultProfile{Loss: 0.25}))
	r := tb.NewResolver(resolver.ProfileCloudflare())
	r.Transport = &resolver.TransportConfig{
		Retries: 6,
		Sleep:   func(context.Context, time.Duration) {},
	}
	f := New(ResolverUpstream{R: r})

	// The healthy control domain resolves cleanly through 25% loss.
	valid := testbed.ParentZone.Child("valid")
	resp, err := f.HandleDNS(context.Background(), dnswire.NewQuery(1, valid, dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("valid: rcode = %s under 25%% loss with retries", resp.RCode)
	}
	if len(resp.EDEs()) != 0 {
		t.Fatalf("valid: unexpected EDEs %v", resp.EDECodes())
	}

	// A misconfigured zone's diagnosis survives the lossy hop unchanged:
	// ds-bad-tag is EDE 9 (DNSKEY Missing) under the Cloudflare profile.
	bad := testbed.ParentZone.Child("ds-bad-tag")
	resp, err = f.HandleDNS(context.Background(), dnswire.NewQuery(2, bad, dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("ds-bad-tag: rcode = %s, want SERVFAIL", resp.RCode)
	}
	codes := resp.EDECodes()
	if len(codes) != 1 || codes[0] != uint16(ede.CodeDNSKEYMissing) {
		t.Fatalf("ds-bad-tag: EDEs = %v, want exactly [9] — loss must not alter the diagnosis", codes)
	}
}

// TestChaosForwarderBlackoutDegradesDocumented: when every authority goes
// silent, the forwarded response must carry the documented degradation —
// EDE 22 (No Reachable Authority) plus EDE 9 at the signed root — rather
// than an empty SERVFAIL.
func TestChaosForwarderBlackoutDegradesDocumented(t *testing.T) {
	tb, err := testbed.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb.Net.SetFaults(netsim.NewFaultPlan(17, netsim.FaultProfile{Loss: 1}))
	r := tb.NewResolver(resolver.ProfileCloudflare())
	r.Transport = &resolver.TransportConfig{
		Retries: 2,
		Sleep:   func(context.Context, time.Duration) {},
	}
	f := New(ResolverUpstream{R: r})

	valid := testbed.ParentZone.Child("valid")
	resp, err := f.HandleDNS(context.Background(), dnswire.NewQuery(3, valid, dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("blackout: rcode = %s, want SERVFAIL", resp.RCode)
	}
	got := ede.Set{}
	for _, c := range resp.EDECodes() {
		got = append(got, ede.Code(c))
	}
	want := ede.Set{ede.CodeDNSKEYMissing, ede.CodeNoReachableAuthority}
	if !got.Equal(want) {
		t.Fatalf("blackout EDEs = %v, want %v", got, want)
	}
}
