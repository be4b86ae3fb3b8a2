package testbed

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

var (
	tbOnce sync.Once
	tbVal  *Testbed
	tbErr  error
)

func sharedTestbed(t *testing.T) *Testbed {
	t.Helper()
	tbOnce.Do(func() { tbVal, tbErr = Build() })
	if tbErr != nil {
		t.Fatalf("Build: %v", tbErr)
	}
	return tbVal
}

func TestBuildHas63Cases(t *testing.T) {
	tb := sharedTestbed(t)
	if len(tb.Cases) != 63 {
		t.Fatalf("built %d cases, want 63", len(tb.Cases))
	}
	groups := make(map[int]int)
	for _, c := range tb.Cases {
		groups[c.Group]++
	}
	// Table 2 group sizes.
	want := map[int]int{1: 1, 2: 7, 3: 8, 4: 9, 5: 14, 6: 10, 7: 8, 8: 6}
	for g, n := range want {
		if groups[g] != n {
			t.Errorf("group %d has %d cases, want %d", g, groups[g], n)
		}
	}
}

// TestTable4Matrix is the E3 experiment check: every cell of the reproduced
// Table 4 must match the paper.
func TestTable4Matrix(t *testing.T) {
	tb := sharedTestbed(t)
	got := tb.RunAll(context.Background(), resolver.AllProfiles())
	mismatches := 0
	for _, c := range tb.Cases {
		for _, sys := range Systems {
			want := ede.Set{}
			for _, code := range c.Expected[sys] {
				want = append(want, ede.Code(code))
			}
			gotSet := got.Results[c.Label][sys]
			if !gotSet.Equal(want) {
				mismatches++
				t.Errorf("%s / %s: got %s, want %s", c.Label, sys, gotSet, want)
			}
		}
	}
	if mismatches > 0 {
		t.Logf("%d/%d cells mismatched", mismatches, len(tb.Cases)*len(Systems))
	}
}

// TestAgreementStats reproduces the paper's §3.3 headline numbers: 4 of 63
// cases agree (94% disagreement) and 12 unique INFO-CODEs appear.
func TestAgreementStats(t *testing.T) {
	tb := sharedTestbed(t)
	m := tb.RunAll(context.Background(), resolver.AllProfiles())
	stats := m.Agreement()
	if stats.TotalCases != 63 {
		t.Fatalf("total = %d", stats.TotalCases)
	}
	if stats.AgreeCases != 4 {
		t.Errorf("agree = %d (%v), want 4", stats.AgreeCases, stats.AgreeCaseList)
	}
	if ratio := stats.DisagreeRatio; ratio < 0.93 || ratio > 0.95 {
		t.Errorf("disagree ratio = %.4f, want ~0.94", ratio)
	}
	if stats.UniqueCodes != 12 {
		t.Errorf("unique codes = %d (%v), want 12", stats.UniqueCodes, stats.UniqueCodeList)
	}
	// The four agreeing cases are the paper's: valid, no-ds, nsec3-iter-200,
	// unsigned — all with no EDE.
	wantAgree := map[string]bool{"valid": true, "no-ds": true, "nsec3-iter-200": true, "unsigned": true}
	for _, c := range stats.AgreeCaseList {
		if !wantAgree[c] {
			t.Errorf("unexpected agreeing case %q", c)
		}
	}
}

// TestCloudflareMostSpecific checks §3.3's specificity claim: the Cloudflare
// profile reports EDEs for more cases than any other system.
func TestCloudflareMostSpecific(t *testing.T) {
	tb := sharedTestbed(t)
	m := tb.RunAll(context.Background(), resolver.AllProfiles())
	spec := m.Specificity()
	if spec[0].System != "Cloudflare" {
		t.Errorf("most specific = %s (%d cases), want Cloudflare", spec[0].System, spec[0].CasesWithEDE)
	}
	for _, s := range spec {
		if s.System == "BIND 9.19.9" && s.CasesWithEDE != 0 {
			t.Errorf("BIND reported EDEs for %d cases, want 0", s.CasesWithEDE)
		}
	}
}

// TestGroupBehaviour spot-checks the per-group narratives of §3.3 (E7).
func TestGroupBehaviour(t *testing.T) {
	tb := sharedTestbed(t)
	cf := tb.NewResolver(resolver.ProfileCloudflare())
	ctx := context.Background()

	byLabel := make(map[string]Case)
	for _, c := range tb.Cases {
		byLabel[c.Label] = c
	}

	t.Run("valid domain validates with AD", func(t *testing.T) {
		res := tb.RunCase(ctx, cf, byLabel["valid"])
		if !res.Msg.AuthenticData || len(res.Msg.Answer) == 0 {
			t.Errorf("ad=%t answers=%d conditions=%v", res.Msg.AuthenticData, len(res.Msg.Answer), res.Conditions)
		}
	})
	t.Run("unsigned resolves without AD", func(t *testing.T) {
		res := tb.RunCase(ctx, cf, byLabel["unsigned"])
		if res.Msg.AuthenticData || len(res.Msg.Answer) == 0 || len(res.Codes()) != 0 {
			t.Errorf("ad=%t answers=%d codes=%v", res.Msg.AuthenticData, len(res.Msg.Answer), res.Codes())
		}
	})
	t.Run("expired signatures SERVFAIL", func(t *testing.T) {
		res := tb.RunCase(ctx, cf, byLabel["rrsig-exp-all"])
		if res.Msg.RCode.String() != "SERVFAIL" {
			t.Errorf("rcode = %s", res.Msg.RCode)
		}
	})
	t.Run("ed448 treated insecure by Cloudflare but validated by Unbound", func(t *testing.T) {
		res := tb.RunCase(ctx, cf, byLabel["ed448"])
		if res.Msg.RCode.String() != "NOERROR" || len(res.Msg.Answer) == 0 {
			t.Fatalf("cloudflare: rcode=%s answers=%d", res.Msg.RCode, len(res.Msg.Answer))
		}
		if res.Msg.AuthenticData {
			t.Error("cloudflare set AD for unsupported algorithm")
		}
		ub := tb.NewResolver(resolver.ProfileUnbound())
		res = tb.RunCase(ctx, ub, byLabel["ed448"])
		if !res.Msg.AuthenticData {
			t.Errorf("unbound did not validate ed448: conditions=%v", res.Conditions)
		}
	})
	t.Run("invalid glue yields SERVFAIL with only EDE 22", func(t *testing.T) {
		res := tb.RunCase(ctx, cf, byLabel["v6-localhost"])
		if res.Msg.RCode.String() != "SERVFAIL" {
			t.Errorf("rcode = %s", res.Msg.RCode)
		}
		if codes := res.Codes(); len(codes) != 1 || codes[0] != 22 {
			t.Errorf("codes = %v", codes)
		}
	})
	t.Run("ACL refusal carries nameserver extra text", func(t *testing.T) {
		res := tb.RunCase(ctx, cf, byLabel["allow-query-none"])
		found := false
		for _, e := range res.Msg.EDEs() {
			if e.InfoCode == 23 && e.ExtraText != "" {
				found = true
				if want := "rcode=REFUSED"; !contains(e.ExtraText, want) {
					t.Errorf("extra text %q missing %q", e.ExtraText, want)
				}
			}
		}
		if !found {
			t.Errorf("no Network Error extra text: %v", res.Msg.EDEs())
		}
	})
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestRenderSmoke keeps the Table 4 renderer working for cmd/edetestbed.
func TestRenderSmoke(t *testing.T) {
	tb := sharedTestbed(t)
	m := tb.ExpectedMatrix()
	out := m.Render()
	for _, want := range []string{"valid", "ds-bad-tag", "allow-query-localhost", "Cloudflare"} {
		if !contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	_ = fmt.Sprintf("%d", len(out))
}

// masterTypes returns the RR types (the fourth column) of a master file's
// record lines.
func masterTypes(master string) map[string]bool {
	types := map[string]bool{}
	for _, l := range strings.Split(master, "\n") {
		if f := strings.Fields(l); len(f) > 4 && !strings.HasPrefix(l, "$") {
			types[f[3]] = true
		}
	}
	return types
}

// TestMasterGoldenCoversTestbedTypes: the zone package pins Zone.Master's
// rendering of every record type in a committed golden
// (zone/testdata/master.golden); the 45 zone artifacts the paper's companion
// site distributes (63 cases minus the 18 glue cases) must emit no type that
// golden leaves unpinned.
func TestMasterGoldenCoversTestbedTypes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "zone", "testdata", "master.golden"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := masterTypes(string(golden))
	tb := sharedTestbed(t)
	zones := 0
	for _, c := range tb.Cases {
		z, ok := tb.ZoneFor(c.Label)
		if !ok {
			continue // groups 6-7 live in the parent's glue only
		}
		zones++
		for typ := range masterTypes(z.Master()) {
			if !pinned[typ] {
				t.Errorf("%s: Master emits %s records, which zone/testdata/master.golden does not pin", c.Label, typ)
			}
		}
	}
	if zones != 45 {
		t.Errorf("checked %d zones, want 45 (63 minus the 18 glue cases)", zones)
	}
}
