package ede_test

import (
	"fmt"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
)

// A resolver attaches Extended DNS Errors to a SERVFAIL to say why it
// failed; a troubleshooting client reads them back off the wire, looks them
// up in the RFC 8914 registry (the paper's Table 1) and turns them into a
// diagnosis.
func ExampleDiagnose() {
	resp := dnswire.NewQuery(4711, dnswire.MustName("broken.example.com"), dnswire.TypeA)
	resp.Response = true
	resp.RCode = dnswire.RCodeServFail
	resp.AddEDE(uint16(ede.CodeDNSKEYMissing), "no SEP matching the DS found for broken.example.com.")
	resp.AddEDE(uint16(ede.CodeNetworkError), "192.0.2.53:53 rcode=REFUSED for broken.example.com A")

	wire, err := resp.Pack()
	if err != nil {
		fmt.Println(err)
		return
	}
	parsed, err := dnswire.Unpack(wire)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("packed response: %d bytes, status %s\n", len(wire), parsed.RCode)
	for _, opt := range parsed.EDEs() {
		code := ede.Code(opt.InfoCode)
		info, _ := ede.Lookup(code)
		fmt.Printf("  EDE %2d %-22s category=%s retriable=%t\n", opt.InfoCode, code.Name(), info.Category, info.Retriable)
		fmt.Printf("         extra: %q\n", opt.ExtraText)
	}

	d := ede.Diagnose(ede.Observe(parsed))
	fmt.Printf("diagnosis: %s\n", d.RootCause)
	fmt.Printf("party:     %s\n", d.Party)
	fmt.Printf("fix:       %s\n", d.Remediation)

	fmt.Println("DNSSEC-related codes in the registry:")
	for c := ede.Code(0); c <= ede.CodeSynthesized; c++ {
		if info, ok := ede.Lookup(c); ok && info.Category == ede.CategoryDNSSEC {
			fmt.Printf("  %2d %s\n", info.Code, info.Name)
		}
	}
	// Output:
	// packed response: 163 bytes, status SERVFAIL
	//   EDE  9 DNSKEY Missing         category=dnssec-validation retriable=false
	//          extra: "no SEP matching the DS found for broken.example.com."
	//   EDE 23 Network Error          category=software-operation retriable=true
	//          extra: "192.0.2.53:53 rcode=REFUSED for broken.example.com A"
	// diagnosis: the DS record at the parent matches no DNSKEY at the child
	// party:     domain owner
	// fix:       update the DS at the registrar or publish the matching DNSKEY
	// DNSSEC-related codes in the registry:
	//    1 Unsupported DNSKEY Algorithm
	//    2 Unsupported DS Digest Type
	//    5 DNSSEC Indeterminate
	//    6 DNSSEC Bogus
	//    7 Signature Expired
	//    8 Signature Not Yet Valid
	//    9 DNSKEY Missing
	//   10 RRSIGs Missing
	//   11 No Zone Key Bit Set
	//   12 NSEC Missing
	//   25 Signature Expired before Valid
	//   27 Unsupported NSEC3 Iterations Value
}
