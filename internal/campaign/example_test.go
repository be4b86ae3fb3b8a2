package campaign_test

import (
	"context"
	"fmt"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/report"
	"github.com/extended-dns-errors/edelab/internal/scan"
)

// A miniature of the paper's §4 Internet-wide measurement: synthesize a
// registered-domain population, scan it through the Cloudflare profile as
// edescan does (one campaign shard, no checkpoint, no rate cap), and print
// the per-code breakdown, Figure 1 and the nameserver fix curve.
func ExampleRunner_Run() {
	pop := population.Generate(population.Config{TotalDomains: 3030, Seed: 1})
	wild, err := population.Materialize(pop)
	if err != nil {
		fmt.Println(err)
		return
	}
	runner, err := campaign.New(campaign.Config{}, wild)
	if err != nil {
		fmt.Println(err)
		return
	}
	snap, err := runner.Run(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(report.Section42Table(snap.Agg))
	fmt.Println()

	g, cc := scan.Figure1(snap.TLD.Rows())
	fmt.Print(report.CDFPlot("Figure 1 (miniature): EDE ratio per TLD", "ratio (%)", 60, 12,
		report.CDFSeries{Label: "gTLDs", Marker: 'g', Xs: g},
		report.CDFSeries{Label: "ccTLDs", Marker: 'c', Xs: cc}))
	fmt.Println()

	// A few broken nameservers strand most of the lame domains.
	conc := scan.NSFromPopulation(pop)
	fmt.Print(report.FixCurve(conc, []int{1, 3, 5, len(conc.Counts)}))
	// Output:
	// Wild scan: 3098 domains, 211 (6.81%) triggered EDE codes
	// 59 domains answered NOERROR while carrying EDEs
	//
	// EDE  Name                                  Domains     Share
	// 22   No Reachable Authority                    141   4.5513%
	// 23   Network Error                             116   3.7444%
	// 10   RRSIGs Missing                             48   1.5494%
	// 9    DNSKEY Missing                              3   0.0968%
	// 6    DNSSEC Bogus                                2   0.0646%
	// 12   NSEC Missing                                2   0.0646%
	// 0    Other                                       1   0.0323%
	// 1    Unsupported DNSKEY Algorithm                1   0.0323%
	// 2    Unsupported DS Digest Type                  1   0.0323%
	// 3    Stale Answer                                1   0.0323%
	// 7    Signature Expired                           1   0.0323%
	// 8    Signature Not Yet Valid                     1   0.0323%
	// 13   Cached Error                                1   0.0323%
	// 24   Invalid Data                                1   0.0323%
	//
	// Figure 1 (miniature): EDE ratio per TLD
	// 1.00 |                                                           c|
	// 0.91 |        gg g  g    g         g                             c|
	// 0.82 |cgggggggg                                                  c|
	// 0.73 |c                                                           |
	// 0.64 |c                                                           |
	// 0.55 |c                                                           |
	// 0.45 |c                                                           |
	// 0.36 |c                                                           |
	// 0.27 |c                                                           |
	// 0.18 |c                                                           |
	// 0.09 |c                                                           |
	// 0.00 |c                                                           |
	//       ------------------------------------------------------------
	//       0                                                        100
	//       x: ratio (%)
	//       g = gTLDs (n=1160)
	//       c = ccTLDs (n=315)
	//
	// Broken nameservers: 8, stranded domains: 148
	//  fix top     repaired
	//        1        64.2%
	//        3        87.8%
	//        5        95.9%
	//        8       100.0%
}
