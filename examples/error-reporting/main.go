// Error-reporting: close the troubleshooting loop with DNS Error Reporting
// (RFC 9567, the draft the paper's §2 cites as building on EDE). A resolver
// scans part of the synthetic Internet; every failure is reported to a
// monitoring agent via specially-formed report queries, so the operators
// responsible learn about their own breakage without running a scanner.
//
// Run with: go run ./examples/error-reporting
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/errreport"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/scan"
)

func main() {
	pop := population.Generate(population.Config{TotalDomains: 3030, Seed: 99})
	wild, err := population.Materialize(pop)
	if err != nil {
		log.Fatal(err)
	}

	// The monitoring agent lives at agent.monitoring.example.
	agentDomain := dnswire.MustName("agent.monitoring.example")
	agent := errreport.NewAgent(agentDomain)
	agentAddr := netip.MustParseAddr("198.18.50.1")
	wild.Net.Register(agentAddr, agent)
	reporter := &errreport.Reporter{Net: wild.Net, Agent: agentDomain, AgentAddr: agentAddr}

	ctx := context.Background()
	reported := 0
	scanned := scan.WarmScanner(ctx, wild, resolver.ProfileCloudflare(), 32, nil).
		ScanStreamOrdered(ctx, pop.Names(), func(r scan.Result) {
			if r.RCode != dnswire.RCodeServFail || len(r.Codes) == 0 {
				return
			}
			if err := reporter.ReportFailure(ctx, r.Domain, dnswire.TypeA, r.Codes[0]); err == nil {
				reported++
			}
		})
	fmt.Printf("scanned %d domains; reported %d failures to %s\n\n", scanned, reported, agentDomain)

	// One concrete report QNAME, to show the wire format.
	if reports := agent.Reports(); len(reports) > 0 {
		name, _ := errreport.BuildQName(reports[0].QName, reports[0].QType, reports[0].InfoCode, agentDomain)
		fmt.Printf("example report query: %s TXT\n", name)
		fmt.Printf("  decodes to: %s %s failed with EDE %d (%s)\n\n",
			reports[0].QName, reports[0].QType, reports[0].InfoCode,
			ede.Code(reports[0].InfoCode).Name())
	}

	fmt.Println("what the monitoring agent learned:")
	for _, code := range agent.TopCodes() {
		fmt.Printf("  EDE %2d %-28s %5d reports\n",
			code, ede.Code(code).Name(), agent.CountsByCode()[code])
	}
}
