// Wildscan: a miniature version of the paper's Section 4 Internet-wide
// measurement — synthesize a registered-domain population, scan it through
// the Cloudflare-profile resolver, and print the per-code breakdown and the
// two figures.
//
// Run with: go run ./examples/wildscan
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/extended-dns-errors/edelab/internal/campaign"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/report"
	"github.com/extended-dns-errors/edelab/internal/scan"
)

func main() {
	// 1:50,000 scale keeps the example under a couple of seconds.
	pop := population.Generate(population.Config{TotalDomains: 6060, Seed: 1})
	wild, err := population.Materialize(pop)
	if err != nil {
		log.Fatal(err)
	}

	// The same pipeline edescan runs: one campaign shard over the whole
	// population, no checkpoint, no rate cap.
	runner, err := campaign.New(campaign.Config{}, wild)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := runner.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(report.Section42Table(snap.Agg))
	fmt.Printf("\nscan issued %d upstream queries in %v\n\n", snap.Queries, runner.Scanner.Elapsed)

	g, cc := scan.Figure1(snap.TLD.Rows())
	fmt.Print(report.CDFPlot("Figure 1 (miniature): EDE ratio per TLD", "ratio (%)", 60, 12,
		report.CDFSeries{Label: "gTLDs", Marker: 'g', Xs: g},
		report.CDFSeries{Label: "ccTLDs", Marker: 'c', Xs: cc}))

	tr := snap.Tranco.Stats()
	xs := make([]float64, len(tr.Ranks))
	for i, r := range tr.Ranks {
		xs[i] = float64(r)
	}
	fmt.Println()
	fmt.Print(report.CDFPlot("Figure 2 (miniature): EDE domains across the popularity list", "rank", 60, 12,
		report.CDFSeries{Label: "EDE domains", Marker: '*', Xs: xs}))

	// The concentration result that motivates the paper's operational
	// takeaway: a few broken nameservers strand most of the lame domains.
	conc := scan.NSFromPopulation(pop)
	fmt.Println()
	fmt.Print(report.FixCurve(conc, []int{1, 3, 5, 10, len(conc.Counts)}))
}
