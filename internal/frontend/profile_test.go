package frontend

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

// profiledStub is a stubUpstream that names its profile, as
// forwarder.ResolverUpstream does.
type profiledStub struct {
	*stubUpstream
	p *resolver.Profile
}

func (u profiledStub) Profile() *resolver.Profile { return u.p }

// TestFrontendReportsAsTheProfile: the codes a frontend attaches to a stale
// answer and to a cached error are what its upstream's profile reports for
// those conditions (resolver.Profile.Report), not fixed ones. The profile
// here serves stale and maps both conditions to codes other than 3 and 13;
// the slow-path reply and the wire image must both carry exactly its report.
func TestFrontendReportsAsTheProfile(t *testing.T) {
	prof := &resolver.Profile{
		Name:    "test",
		Support: dnssec.StandardSupport(),
		Map: map[resolver.Condition][]ede.Code{
			resolver.ConditionStaleServed: {ede.CodeOther, ede.CodeNotReady},
			resolver.ConditionCachedError: {ede.CodeNotAuthoritative},
		},
		ServeStale: true,
	}
	report := func(c resolver.Condition) string {
		return fmt.Sprint(prof.Report([]resolver.Condition{c}, nil))
	}
	clock := newClock()
	up := &stubUpstream{}
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return positive(qname, 100), nil
	})
	f := New(profiledStub{up, prof}, Config{Now: clock.Now})
	ctx := context.Background()
	ask := func(name string) *dnswire.Message {
		t.Helper()
		resp, err := f.HandleDNS(ctx, wireQueryMsg(1, name, false, true, true))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Stale: the cached answer expires and the refresh fails.
	ask("www.example.")
	clock.Advance(200 * time.Second)
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return nil, fmt.Errorf("authorities down")
	})
	if got, want := fmt.Sprint(ask("www.example.").EDEs()), report(resolver.ConditionStaleServed); got != want {
		t.Errorf("stale answer carries %s, the profile reports %s", got, want)
	}

	// Cached error: the first SERVFAIL fills the error cache, the second ask
	// is answered from it by the slow path and captures the wire image.
	up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
		return &dnswire.Message{Response: true, RCode: dnswire.RCodeServFail,
			Question: []dnswire.Question{{Name: qname, Type: dnswire.TypeA, Class: dnswire.ClassIN}}}, nil
	})
	ask("bad.example.")
	slow, fast, ok := serveBoth(t, f, wireQueryMsg(2, "bad.example.", false, true, true), 0xFFFF)
	if !ok {
		t.Fatal("no wire image for the cached error")
	}
	for path, wire := range map[string][]byte{"slow path": slow, "wire image": fast} {
		m, err := dnswire.Unpack(wire)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got, want := fmt.Sprint(m.EDEs()), report(resolver.ConditionCachedError); got != want {
			t.Errorf("%s: cached error carries %s, the profile reports %s", path, got, want)
		}
	}
}
