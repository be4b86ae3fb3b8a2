// Command edetestbed reproduces Section 3 of the paper: it builds the
// extended-dns-errors.com testbed (63 misconfigured subdomains, Tables 2–3),
// resolves every test case through the seven vendor profiles, and prints the
// resulting Table 4 together with the §3.3 agreement statistics.
//
// Usage:
//
//	edetestbed            # print the reproduced Table 4 + agreement stats
//	edetestbed -table 2   # print Table 2 (the subdomain groups)
//	edetestbed -table 3   # print Table 3 (per-subdomain configuration)
//	edetestbed -expected  # print the paper's Table 4 for comparison
//	edetestbed -diff      # cell-by-cell comparison against the paper
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/report"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

func main() {
	table := flag.Int("table", 4, "which paper table to print (2, 3, or 4)")
	expected := flag.Bool("expected", false, "print the paper's Table 4 instead of measuring")
	diff := flag.Bool("diff", false, "compare the measured matrix against the paper cell by cell")
	zones := flag.String("zones", "", "dump the master file of one test zone (a Table 2 label, or 'all')")
	trace := flag.String("trace", "", "trace the resolution of one test case (a Table 2 label) under the Cloudflare profile")
	flag.Parse()

	tb, err := testbed.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "edetestbed: build: %v\n", err)
		os.Exit(1)
	}

	if *zones != "" {
		dumpZones(tb, *zones)
		return
	}
	if *trace != "" {
		traceCase(tb, *trace)
		return
	}

	switch {
	case *table == 2:
		printTable2(tb)
		return
	case *table == 3:
		printTable3(tb)
		return
	case *expected:
		fmt.Print(tb.ExpectedMatrix().Render())
		return
	}

	fmt.Fprintln(os.Stderr, "resolving 63 cases × 7 vendor profiles ...")
	got := tb.RunAll(context.Background(), resolver.AllProfiles())

	if *diff {
		printDiff(tb, got)
		return
	}
	fmt.Print(got.Render())
	fmt.Println()
	fmt.Print(report.AgreementSummary(got.Agreement()))
	fmt.Println()
	fmt.Println("Specificity (cases with at least one EDE, per system):")
	for _, s := range got.Specificity() {
		fmt.Printf("  %-18s %2d cases, %2d codes total\n", s.System, s.CasesWithEDE, s.TotalCodes)
	}
	fmt.Println()
	fmt.Println("Pairwise agreement (extension; top and bottom 3 pairs):")
	pairs := got.Pairwise()
	show := pairs
	if len(pairs) > 6 {
		show = append(append([]ede.PairAgreement(nil), pairs[:3]...), pairs[len(pairs)-3:]...)
	}
	for _, p := range show {
		fmt.Printf("  %-18s ~ %-18s %2d/%2d (%.0f%%)\n", p.A, p.B, p.Agree, p.Total, 100*p.Ratio())
	}
}

// traceCase renders the span tree of one case's resolution, as ededig
// -trace does.
func traceCase(tb *testbed.Testbed, label string) {
	for _, c := range tb.Cases {
		if c.Label != label {
			continue
		}
		r := tb.NewResolver(resolver.ProfileCloudflare())
		ctx, tr := telemetry.StartTrace(context.Background(), c.Query.String()+" A")
		res := tb.RunCase(ctx, r, c)
		tr.Root().End()
		fmt.Printf("; %s — %s\n", c.Label, c.Description)
		fmt.Print(tr.Render())
		fmt.Printf("=> rcode=%s ad=%t conditions=%v codes=%v\n",
			res.Msg.RCode, res.Msg.AuthenticData, res.Conditions, res.Codes())
		return
	}
	fmt.Fprintf(os.Stderr, "edetestbed: unknown case %q\n", label)
	os.Exit(2)
}

// dumpZones prints the master-file form of the requested misconfigured
// zone(s) — the artifact the paper's companion site distributes per case.
func dumpZones(tb *testbed.Testbed, which string) {
	for _, c := range tb.Cases {
		if which != "all" && c.Label != which {
			continue
		}
		z, ok := tb.ZoneFor(c.Label)
		if !ok {
			fmt.Printf("; %s: no zone (invalid-glue case, configured at the parent)\n\n", c.Label)
			continue
		}
		fmt.Printf("; case %s — %s\n%s\n", c.Label, c.Description, z.Master())
	}
}

func printTable2(tb *testbed.Testbed) {
	groups := map[int]string{
		1: "Control subdomain", 2: "DS misconfigurations",
		3: "RRSIG misconfigurations", 4: "NSEC3 misconfigurations",
		5: "DNSKEY misconfigurations", 6: "Invalid AAAA glue records",
		7: "Invalid A glue records", 8: "Other",
	}
	for g := 1; g <= 8; g++ {
		fmt.Printf("%d. %s\n", g, groups[g])
		for _, c := range tb.Cases {
			if c.Group == g {
				fmt.Printf("    %s\n", c.Label)
			}
		}
	}
}

func printTable3(tb *testbed.Testbed) {
	for _, c := range tb.Cases {
		fmt.Printf("%-26s %s\n", c.Label, c.Description)
	}
}

func printDiff(tb *testbed.Testbed, got *ede.Matrix) {
	mismatch := 0
	for _, c := range tb.Cases {
		for _, sys := range testbed.Systems {
			want := ede.Set{}
			for _, code := range c.Expected[sys] {
				want = append(want, ede.Code(code))
			}
			g := got.Results[c.Label][sys]
			if !g.Equal(want) {
				mismatch++
				fmt.Printf("MISMATCH %-26s %-16s got %-10s want %s\n", c.Label, sys, g, want)
			}
		}
	}
	total := len(tb.Cases) * len(testbed.Systems)
	fmt.Printf("%d/%d cells match the paper's Table 4\n", total-mismatch, total)
}
