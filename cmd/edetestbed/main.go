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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/report"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; the return value is
// the exit status (2 for a command line that cannot be honoured as written).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edetestbed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 4, "which paper table to print (2, 3, or 4)")
	expected := fs.Bool("expected", false, "print the paper's Table 4 instead of measuring")
	diff := fs.Bool("diff", false, "compare the measured matrix against the paper cell by cell")
	zones := fs.String("zones", "", "dump the master file of one test zone (a Table 2 label, or 'all')")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *table < 2 || *table > 4 {
		fmt.Fprintf(stderr, "edetestbed: -table %d: the paper's tables here are 2, 3 and 4\n", *table)
		return 2
	}

	tb, err := testbed.Build()
	if err != nil {
		fmt.Fprintf(stderr, "edetestbed: build: %v\n", err)
		return 1
	}
	switch {
	case *zones != "":
		if !dumpZones(stdout, tb, *zones) {
			fmt.Fprintf(stderr, "edetestbed: unknown case %q\n", *zones)
			return 2
		}
		return 0
	case *table == 2:
		printTable2(stdout, tb)
		return 0
	case *table == 3:
		printTable3(stdout, tb)
		return 0
	case *expected:
		fmt.Fprint(stdout, tb.ExpectedMatrix().Render())
		return 0
	}

	fmt.Fprintln(stderr, "resolving 63 cases × 7 vendor profiles ...")
	got := tb.RunAll(context.Background(), resolver.AllProfiles())

	if *diff {
		printDiff(stdout, tb, got)
		return 0
	}
	fmt.Fprint(stdout, got.Render())
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, report.AgreementSummary(got.Agreement()))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "Specificity (cases with at least one EDE, per system):")
	for _, s := range got.Specificity() {
		fmt.Fprintf(stdout, "  %-18s %2d cases, %2d codes total\n", s.System, s.CasesWithEDE, s.TotalCodes)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "Pairwise agreement (extension; top and bottom 3 pairs):")
	pairs := got.Pairwise()
	show := pairs
	if len(pairs) > 6 {
		show = append(append([]ede.PairAgreement(nil), pairs[:3]...), pairs[len(pairs)-3:]...)
	}
	for _, p := range show {
		fmt.Fprintf(stdout, "  %-18s ~ %-18s %2d/%2d (%.0f%%)\n", p.A, p.B, p.Agree, p.Total, 100*p.Ratio())
	}
	return 0
}

// dumpZones prints the master-file form of the requested misconfigured
// zone(s) — the artifact the paper's companion site distributes per case;
// false means no case has that label.
func dumpZones(w io.Writer, tb *testbed.Testbed, which string) bool {
	found := false
	for _, c := range tb.Cases {
		if which != "all" && c.Label != which {
			continue
		}
		found = true
		z, ok := tb.ZoneFor(c.Label)
		if !ok {
			fmt.Fprintf(w, "; %s: no zone (invalid-glue case, configured at the parent)\n\n", c.Label)
			continue
		}
		fmt.Fprintf(w, "; case %s — %s\n%s\n", c.Label, c.Description, z.Master())
	}
	return found
}

func printTable2(w io.Writer, tb *testbed.Testbed) {
	groups := map[int]string{
		1: "Control subdomain", 2: "DS misconfigurations",
		3: "RRSIG misconfigurations", 4: "NSEC3 misconfigurations",
		5: "DNSKEY misconfigurations", 6: "Invalid AAAA glue records",
		7: "Invalid A glue records", 8: "Other",
	}
	for g := 1; g <= 8; g++ {
		fmt.Fprintf(w, "%d. %s\n", g, groups[g])
		for _, c := range tb.Cases {
			if c.Group == g {
				fmt.Fprintf(w, "    %s\n", c.Label)
			}
		}
	}
}

func printTable3(w io.Writer, tb *testbed.Testbed) {
	for _, c := range tb.Cases {
		fmt.Fprintf(w, "%-26s %s\n", c.Label, c.Description)
	}
}

func printDiff(w io.Writer, tb *testbed.Testbed, got *ede.Matrix) {
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
				fmt.Fprintf(w, "MISMATCH %-26s %-16s got %-10s want %s\n", c.Label, sys, g, want)
			}
		}
	}
	total := len(tb.Cases) * len(testbed.Systems)
	fmt.Fprintf(w, "%d/%d cells match the paper's Table 4\n", total-mismatch, total)
}
