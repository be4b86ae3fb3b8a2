package frontend

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
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
// those conditions (resolver.Profile.Report), not fixed ones. BIND 9 and
// Cloudflare both serve stale, but only Cloudflare reports a cached error
// (EDE 13); for each, the stale answer, and the cached error from both the
// slow path and the wire image, must carry exactly its profile's report.
func TestFrontendReportsAsTheProfile(t *testing.T) {
	for _, tc := range []struct {
		prof     *resolver.Profile
		cached13 bool // Table 4: the profile reports a cached error as EDE 13
	}{
		{resolver.ProfileBIND9(), false},
		{resolver.ProfileCloudflare(), true},
	} {
		t.Run(tc.prof.Name, func(t *testing.T) {
			// Codes only: Cloudflare's EXTRA-TEXT carries the answer's
			// own details (the cached error's retry seconds).
			report := func(c resolver.Condition) string {
				var codes []uint16
				for _, o := range tc.prof.Report([]resolver.Condition{c}, nil) {
					codes = append(codes, o.InfoCode)
				}
				return fmt.Sprint(codes)
			}
			if got := report(resolver.ConditionCachedError) == "[13]"; got != tc.cached13 {
				t.Fatalf("the profile reports a cached error as %s", report(resolver.ConditionCachedError))
			}
			clock := newClock()
			up := &stubUpstream{}
			up.set(func(_ context.Context, qname dnswire.Name, _ dnswire.Type) (*dnswire.Message, error) {
				return positive(qname, 100), nil
			})
			f := New(profiledStub{up, tc.prof}, Config{Now: clock.Now})
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
			if got, want := fmt.Sprint(ask("www.example.").EDECodes()), report(resolver.ConditionStaleServed); got != want {
				t.Errorf("stale answer carries %s, the profile reports %s", got, want)
			}

			// Cached error: the first SERVFAIL fills the error cache, the
			// second ask is answered from it by the slow path and captures
			// the wire image.
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
				if got, want := fmt.Sprint(m.EDECodes()), report(resolver.ConditionCachedError); got != want {
					t.Errorf("%s: cached error carries %s, the profile reports %s", path, got, want)
				}
			}
		})
	}
}
