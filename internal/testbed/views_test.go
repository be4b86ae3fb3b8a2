package testbed

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

// classDifferences lists the cases whose RCODE or AD bit differs between
// behaviour classes, with CD clear or set (" cd"). Both are Cloudflare's
// support set at work: it does not validate Ed448, so the zone is insecure
// to it and AD stays clear.
var classDifferences = []string{"ed448", "ed448 cd"}

// TestProfilesAreViewsOfTheirClass is the paper's §1 conclusion as an
// identity: the systems "differ in response specificity and the support of
// specific EDE codes rather than correctness". For all 63 cases, with CD
// clear and set, every profile's own resolver answers as its behaviour
// class's first profile does, reported through the profile's Report: same
// RCODE, AD bit, answer count, EDE codes and EXTRA-TEXT. Between classes the
// RCODE and AD bit differ only where classDifferences says.
func TestProfilesAreViewsOfTheirClass(t *testing.T) {
	tb := sharedTestbed(t)
	ctx := context.Background()
	classes := resolver.ByBehaviour(resolver.AllProfiles())
	if len(classes) != 3 {
		t.Fatalf("%d behaviour classes, want 3: %v", len(classes), classNames(classes))
	}
	// resolveAll walks every case in order through one resolver, as RunAll
	// does, so the caches of two resolvers it is given match case by case.
	resolveAll := func(p *resolver.Profile, cd bool) []*resolver.Result {
		r := tb.NewResolver(p)
		out := make([]*resolver.Result, len(tb.Cases))
		for i, c := range tb.Cases {
			out[i] = r.ResolveWithOptions(ctx, c.Query, dnswire.TypeA, resolver.QueryOptions{CheckingDisabled: cd})
		}
		return out
	}

	var differ []string
	for _, cd := range []bool{false, true} {
		suffix := ""
		if cd {
			suffix = " cd"
		}
		reps := make([][]*resolver.Result, len(classes))
		for ci, class := range classes {
			reps[ci] = resolveAll(class[0], cd)
			for _, p := range class {
				for i, own := range resolveAll(p, cd) {
					rep := reps[ci][i]
					got := fmt.Sprintf("%s AD=%t answers=%d %v", own.Msg.RCode, own.Msg.AuthenticData, len(own.Msg.Answer), own.Msg.EDEs())
					want := fmt.Sprintf("%s AD=%t answers=%d %v", rep.Msg.RCode, rep.Msg.AuthenticData, len(rep.Msg.Answer), p.Report(rep.Conditions, rep.Details))
					if got != want {
						t.Errorf("%s%s under %s: own resolver %s, %s's resolution reported by it %s",
							tb.Cases[i].Label, suffix, p.Name, got, class[0].Name, want)
					}
				}
			}
		}
		for i, c := range tb.Cases {
			for _, rs := range reps[1:] {
				if rs[i].Msg.RCode != reps[0][i].Msg.RCode || rs[i].Msg.AuthenticData != reps[0][i].Msg.AuthenticData {
					differ = append(differ, c.Label+suffix)
					break
				}
			}
		}
	}
	if !slices.Equal(differ, classDifferences) {
		t.Errorf("cases whose RCODE or AD differs between classes = %q, want %q", differ, classDifferences)
	}
}

func classNames(classes [][]*resolver.Profile) [][]string {
	out := make([][]string, len(classes))
	for i, class := range classes {
		for _, p := range class {
			out[i] = append(out[i], p.Name)
		}
	}
	return out
}
