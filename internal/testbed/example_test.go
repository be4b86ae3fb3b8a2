package testbed_test

import (
	"context"
	"fmt"
	"strings"

	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/report"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// The operator's workflow the paper argues RFC 8914 unlocks (§7): a domain
// stops resolving, and instead of a bare SERVFAIL the resolver says why.
// Through a BIND 9.19.9-era resolver the same failure carries nothing to go
// on.
func ExampleTestbed_RunCase() {
	tb, err := testbed.Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	ctx := context.Background()
	byLabel := map[string]testbed.Case{}
	for _, c := range tb.Cases {
		byLabel[c.Label] = c
	}
	cloudflare := tb.NewResolver(resolver.ProfileCloudflare())
	for _, label := range []string{"valid", "rrsig-exp-all", "ds-bad-tag", "v4-private-10", "allow-query-none"} {
		c := byLabel[label]
		res := tb.RunCase(ctx, cloudflare, c)
		fmt.Printf("=== %s: %s\n", c.Zone, c.Description)
		fmt.Printf("rcode %s, AD %t, EDE %v\n", res.Msg.RCode, res.Msg.AuthenticData, res.Codes())
		d := ede.Diagnose(ede.Observe(res.Msg))
		fmt.Printf("diagnosis [%s]: %s\n", d.Severity, d.RootCause)
		fmt.Printf("action for %s: %s\n", d.Party, d.Remediation)
	}

	bind := resolver.ProfileBIND9()
	res := tb.RunCase(ctx, tb.NewResolver(bind), byLabel["rrsig-exp-all"])
	fmt.Printf("=== the same rrsig-exp-all through %s: rcode %s, EDE %v\n", bind.Name, res.Msg.RCode, res.Codes())
	// Output:
	// === valid.extended-dns-errors.com.: The correctly configured control domain
	// rcode NOERROR, AD true, EDE []
	// diagnosis [ok]: no error reported
	// action for nobody: none
	// === rrsig-exp-all.extended-dns-errors.com.: All the RRSIG records are expired
	// rcode SERVFAIL, AD false, EDE [7]
	// diagnosis [failed]: DNSSEC signatures have expired
	// action for domain owner: re-sign the zone and verify the signing pipeline runs on schedule
	// === ds-bad-tag.extended-dns-errors.com.: The key tag field of the DS record at the parent zone does not correspond to the KSK DNSKEY ID at the child zone
	// rcode SERVFAIL, AD false, EDE [9]
	// diagnosis [failed]: the DS record at the parent matches no DNSKEY at the child
	// action for domain owner: update the DS at the registrar or publish the matching DNSKEY
	// === v4-private-10.extended-dns-errors.com.: The A glue record at the parent zone is a private address
	// rcode SERVFAIL, AD false, EDE [22]
	// diagnosis [failed]: authoritative nameservers are unreachable or answer with errors (lame delegation)
	// action for DNS operator: verify NS records and glue point at servers that answer for the zone
	// === allow-query-none.extended-dns-errors.com.: Nameserver does not accept queries for the subdomain
	// rcode SERVFAIL, AD false, EDE [9 22 23]
	// diagnosis [failed]: the DS record at the parent matches no DNSKEY at the child
	// action for domain owner: update the DS at the registrar or publish the matching DNSKEY
	// === the same rrsig-exp-all through BIND 9.19.9: rcode SERVFAIL, EDE []
}

// The paper's core §3.3 finding up close: the seven systems agree on
// whether something is wrong, not on which code to say it with.
func ExampleTestbed_RunAll() {
	tb, err := testbed.Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	ctx := context.Background()
	profiles := resolver.AllProfiles()

	row := fmt.Sprintf("%-20s", "case")
	for _, p := range profiles {
		row += fmt.Sprintf(" %-8.8s", p.Name)
	}
	fmt.Println(strings.TrimRight(row, " "))
	for _, c := range tb.Cases {
		switch c.Label {
		case "ds-bad-tag", "rrsig-exp-all", "rrsig-exp-before-all", "nsec3-rrsig-missing", "no-dnskey-256-257", "allow-query-none":
		default:
			continue
		}
		row := fmt.Sprintf("%-20s", c.Label)
		for _, p := range profiles {
			var set ede.Set
			for _, code := range tb.RunCase(ctx, tb.NewResolver(p), c).Codes() {
				set = append(set, ede.Code(code))
			}
			row += fmt.Sprintf(" %-8s", set)
		}
		fmt.Println(strings.TrimRight(row, " "))
	}
	fmt.Println()
	fmt.Print(report.AgreementSummary(tb.RunAll(ctx, profiles).Agreement()))
	// Output:
	// case                 BIND 9.1 Unbound  PowerDNS Knot 5.6 Cloudfla Quad9    OpenDNS
	// ds-bad-tag           None     9        9        6        9        9        6
	// rrsig-exp-all        None     7        7        7        7        7        6
	// rrsig-exp-before-all None     9        7        7        10       9        6
	// nsec3-rrsig-missing  None     12       None     10       6        9        12
	// no-dnskey-256-257    None     9        10       10       9        10       6
	// allow-query-none     None     None     None     None     9,22,23  None     18
	//
	// Test cases:            63
	// Full agreement:        4 (valid, no-ds, nsec3-iter-200, unsigned)
	// Disagreement ratio:    93.7%
	// Unique INFO-CODEs:     12 [Other (0) Unsupported DNSKEY Algorithm (1) Unsupported DS Digest Type (2) DNSSEC Bogus (6) Signature Expired (7) Signature Not Yet Valid (8) DNSKEY Missing (9) RRSIGs Missing (10) NSEC Missing (12) Prohibited (18) No Reachable Authority (22) Network Error (23)]
	//   BIND 9.19.9        0 distinct codes
	//   Cloudflare         9 distinct codes
	//   Knot 5.6.0         6 distinct codes
	//   OpenDNS            5 distinct codes
	//   PowerDNS 4.8.2     5 distinct codes
	//   Quad9              5 distinct codes
	//   Unbound 1.16.2     5 distinct codes
}
