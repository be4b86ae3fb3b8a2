package testbed

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// faultFreeReport replays all 63 cases through all seven profiles on a fresh
// testbed with a perfect network and renders the canonical, byte-stable
// document the golden file holds: header, one line per (case, system) cell
// in sorted order, and the network counters. RunAll walks profile by
// profile, which is what the counters on the last line depend on. The header
// is that of the chaos harness the file was first written by (a schedule
// name, its fault spec and its seed); a fault-free run draws on none of them.
func faultFreeReport(t *testing.T, ctx context.Context) string {
	t.Helper()
	tb, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	m := tb.RunAll(ctx, resolver.AllProfiles())

	var b strings.Builder
	b.WriteString("schedule: fault-free\nfaults: \"\"\nseed: 20230515\n")
	fmt.Fprintf(&b, "cells: %d\n\n", len(m.Cases)*len(m.Systems))
	cases := append([]string(nil), m.Cases...)
	sort.Strings(cases)
	for _, c := range cases {
		for _, sys := range m.Systems {
			fmt.Fprintf(&b, "%s\t%s\t%s\n", c, sys, m.Results[c][sys])
		}
	}
	s := tb.Net.Stats()
	fmt.Fprintf(&b, "\nqueries: %d answered: %d lost: %d truncated: %d garbled: %d duplicated: %d reordered: %d\n",
		s.Queries, s.Answered, s.Lost, s.Truncated, s.Garbled, s.Duplicated, s.Reordered)
	return b.String()
}

// TestTable4Golden pins the fault-free replay — all 441 cells and the number
// of queries it took to produce them — to the committed golden report.
// TestTable4Matrix checks the same cells against the paper.
func TestTable4Golden(t *testing.T) {
	got := faultFreeReport(t, context.Background())
	if !strings.Contains(got, "\ncells: 441\n") {
		t.Fatalf("matrix does not have 441 cells:\n%s", got[:strings.Index(got, "\n\n")])
	}
	golden := filepath.Join("testdata", "table4.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Error("fault-free report differs from testdata/table4.golden (run with -update after intentional changes)")
	}
}

// TestGoldenStableUnderTracing replays the fault-free run with a live trace
// in the context and requires the report to stay byte-identical to the
// committed Table 4 golden. Tracing observes the resolution; it must never
// perturb it — no extra queries, no reordered retries, no changed verdicts.
func TestGoldenStableUnderTracing(t *testing.T) {
	ctx, tr := telemetry.StartTrace(context.Background(), "fault-free replay")
	got := faultFreeReport(t, ctx)
	tr.Root().End()

	want, err := os.ReadFile(filepath.Join("testdata", "table4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Error("traced fault-free report differs from testdata/table4.golden — tracing perturbed the resolution")
	}
	// The trace itself must have recorded the replay's resolutions.
	if snap := tr.Snapshot(); len(snap.Root.Children) == 0 {
		t.Fatal("trace recorded no spans — the context did not reach the resolver")
	}
}

// TestFlushedCacheReproducesTable4 is the delegation cache's determinism
// oracle: running every Table 4 case through a resolver, then flushing
// every cache (answers, zone keys, AND delegations) and running them again
// must produce byte-identical per-case outcomes. If cut replay leaked or
// dropped a condition, the warm-state first pass and the cold second pass
// would diverge.
func TestFlushedCacheReproducesTable4(t *testing.T) {
	tb := sharedTestbed(t)
	ctx := context.Background()
	for _, p := range resolver.AllProfiles() {
		r := tb.NewResolver(p)
		pass := func() []string {
			out := make([]string, 0, len(tb.Cases))
			for _, c := range tb.Cases {
				res := r.Resolve(ctx, c.Query, dnswire.TypeA)
				out = append(out, fmt.Sprintf("%s rcode=%s ad=%t codes=%v",
					c.Label, res.Msg.RCode, res.Msg.AuthenticData, res.Codes()))
			}
			return out
		}
		first := pass()
		if r.Cache.DelegationLen() == 0 {
			t.Fatalf("%s: no delegations cached during the Table 4 run", p.Name)
		}
		r.Cache.Flush()
		if r.Cache.DelegationLen() != 0 {
			t.Fatalf("%s: Flush left delegations behind", p.Name)
		}
		second := pass()
		for i := range first {
			if first[i] != second[i] {
				t.Errorf("%s: flushed-cache divergence:\n  warm: %s\n  cold: %s", p.Name, first[i], second[i])
			}
		}
	}
}
