// Command ededig is a dig-like DNS client that understands RFC 8914: it
// sends an EDNS query with DO set, prints the response with its round-trip
// time, decodes every Extended DNS Error option (info-code, registry name,
// category, and EXTRA-TEXT) against the registry, and runs the
// troubleshooting engine over the result.
//
// Usage:
//
//	ededig -server 127.0.0.1:5353 rrsig-exp-all.extended-dns-errors.com
//	ededig -server 127.0.0.1:5353 -type AAAA valid.extended-dns-errors.com
//
// Besides UDP it speaks every front-door transport edeserver exposes:
//
//	ededig -tcp -server 127.0.0.1:5353 rrsig-exp-all.extended-dns-errors.com
//	ededig -tls -insecure -server 127.0.0.1:8853 rrsig-exp-all.extended-dns-errors.com
//	ededig -doh https://127.0.0.1:8443/dns-query -insecure -doh-post valid.extended-dns-errors.com
//	ededig -cd rrsig-exp-all.extended-dns-errors.com   # bogus data with EDEs instead of SERVFAIL
//
// With -trace the query skips the wire entirely: the built-in testbed is
// constructed in-process, a validating resolver (pick one with -profile)
// resolves the name with tracing enabled, and the full resolution trace is
// rendered — every zone cut of the delegation walk, cache decisions,
// per-server transport attempts with RTT and retry reasons, DNSSEC
// validation verdicts, and the exact point where each EDE attached:
//
//	ededig -trace ds-bogus-digest-value.extended-dns-errors.com
//	ededig -trace -profile quad9 rrsig-exp-all.extended-dns-errors.com
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/testbed"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

func main() {
	server := flag.String("server", "127.0.0.1:5353", "DNS server address")
	qtypeName := flag.String("type", "A", "query type (A, AAAA, NS, SOA, TXT, DS, DNSKEY, NSEC3PARAM)")
	timeout := flag.Duration("timeout", 3*time.Second, "query timeout")
	noDO := flag.Bool("cd-only", false, "clear the DO bit")
	cd := flag.Bool("cd", false, "set the CD (checking disabled) bit: receive bogus data with its EDE diagnostics instead of SERVFAIL")
	useTCP := flag.Bool("tcp", false, "query over TCP (RFC 7766 two-byte framing)")
	useTLS := flag.Bool("tls", false, "query over DoT (RFC 7858); -server is host:port of the TLS listener")
	dohURL := flag.String("doh", "", "query over DoH (RFC 8484): endpoint URL like https://127.0.0.1:8443/dns-query (overrides -server)")
	dohPost := flag.Bool("doh-post", false, "with -doh, use the POST application/dns-message form instead of GET ?dns=")
	insecure := flag.Bool("insecure", false, "skip TLS certificate verification for -tls/-doh (edeserver's default cert is self-signed)")
	traceMode := flag.Bool("trace", false, "resolve in-process against the built-in testbed and render the resolution trace (ignores -server)")
	profileName := flag.String("profile", "cloudflare", "vendor profile for -trace (cloudflare, bind, unbound, powerdns, knot, quad9, opendns)")
	chaosSpec := flag.String("chaos", "", "with -trace, inject a fault profile (e.g. \"loss=0.3,lat=20ms\") into every testbed path")
	chaosSeed := flag.Uint64("chaos-seed", 20230515, "with -chaos, seed for the deterministic fault streams")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ededig [flags] <name>")
		flag.Usage()
		os.Exit(2)
	}
	name, err := dnswire.NewName(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ededig: bad name: %v\n", err)
		os.Exit(2)
	}
	qtype, ok := parseType(*qtypeName)
	if !ok {
		fmt.Fprintf(os.Stderr, "ededig: unknown type %q\n", *qtypeName)
		os.Exit(2)
	}

	if *traceMode {
		prof, ok := resolver.ProfileByName(*profileName)
		if !ok {
			fmt.Fprintf(os.Stderr, "ededig: unknown profile %q\n", *profileName)
			os.Exit(2)
		}
		runTrace(name, qtype, prof, *chaosSpec, *chaosSeed)
		return
	}
	if *chaosSpec != "" {
		fmt.Fprintln(os.Stderr, "ededig: -chaos requires -trace (faults are injected into the in-process testbed)")
		os.Exit(2)
	}

	q := dnswire.NewQuery(uint16(time.Now().UnixNano()), name, qtype)
	if *noDO {
		q.OPT.DO = false
	}
	q.CheckingDisabled = *cd
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var tlsConf *tls.Config
	if *insecure {
		tlsConf = &tls.Config{InsecureSkipVerify: true}
	}
	var (
		resp *dnswire.Message
		via  = *server
	)
	start := time.Now()
	switch {
	case *dohURL != "":
		client := http.DefaultClient
		if tlsConf != nil {
			client = &http.Client{Transport: &http.Transport{TLSClientConfig: tlsConf}}
		}
		resp, err = transport.QueryDoH(ctx, client, *dohURL, q, *dohPost)
		via = *dohURL
	case *useTLS:
		resp, err = transport.QueryDoT(ctx, *server, tlsConf, q)
	case *useTCP:
		resp, err = transport.QueryTCP(ctx, *server, q)
	default:
		resp, err = transport.QueryUDP(ctx, *server, q)
	}
	rtt := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ededig: query failed: %v\n", err)
		os.Exit(1)
	}

	fmt.Print(resp.String())
	fmt.Printf(";; Query time: %d msec\n", rtt.Milliseconds())
	fmt.Printf(";; SERVER: %s (%s)\n", via, transportName(*dohURL != "", *useTLS, *useTCP))
	printEDEs(resp)
	printDiagnosis(resp)
}

// transportName labels the probe for the SERVER line.
func transportName(doh, dot, tcp bool) string {
	switch {
	case doh:
		return "DoH"
	case dot:
		return "DoT"
	case tcp:
		return "TCP"
	default:
		return "UDP"
	}
}

// runTrace resolves the name against the in-process testbed with a live
// trace in the context, then renders the span tree the resolver built.
// A non-empty chaos spec installs a deterministic fault plan on every
// testbed path, seeded so the same invocation replays the same failures.
func runTrace(name dnswire.Name, qtype dnswire.Type, prof *resolver.Profile, chaosSpec string, chaosSeed uint64) {
	tb, err := testbed.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ededig: building testbed: %v\n", err)
		os.Exit(1)
	}
	if chaosSpec != "" {
		fp, err := netsim.ParseFaultProfile(chaosSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ededig: bad -chaos spec: %v\n", err)
			os.Exit(2)
		}
		tb.Net.SetFaults(netsim.NewFaultPlan(chaosSeed, fp))
		fmt.Printf(";; chaos: %s\n", fp.String())
		fmt.Printf(";; effective seed: %d\n", chaosSeed)
	}
	res := tb.NewResolver(prof)
	ctx, tr := telemetry.StartTrace(context.Background(), fmt.Sprintf("%s %s", name, qtype))
	start := time.Now()
	result := res.Resolve(ctx, name, qtype)
	rtt := time.Since(start)
	tr.Root().End()

	fmt.Print(result.Msg.String())
	fmt.Printf(";; Query time: %d msec (in-process resolution, %s profile)\n",
		rtt.Milliseconds(), res.Profile.Name)
	printEDEs(result.Msg)
	printDiagnosis(result.Msg)
	fmt.Println(";; RESOLUTION TRACE:")
	fmt.Print(tr.Render())
}

// printEDEs decodes every EDE option in resp against the IANA registry.
func printEDEs(resp *dnswire.Message) {
	edes := resp.EDEs()
	if len(edes) == 0 {
		fmt.Println(";; no Extended DNS Errors")
		return
	}
	fmt.Println(";; EXTENDED DNS ERRORS:")
	for _, e := range edes {
		info, _ := ede.Lookup(ede.Code(e.InfoCode))
		line := fmt.Sprintf(";;   %d (%s) [%s]", e.InfoCode, ede.Code(e.InfoCode).Name(), info.Category)
		if e.ExtraText != "" {
			line += fmt.Sprintf(": %q", e.ExtraText)
		}
		fmt.Println(line)
	}
}

// printDiagnosis runs the troubleshooting engine over the response.
func printDiagnosis(resp *dnswire.Message) {
	d := ede.Diagnose(ede.Observe(resp))
	fmt.Println(";; DIAGNOSIS:")
	fmt.Printf(";;   severity:    %s\n", d.Severity)
	fmt.Printf(";;   root cause:  %s\n", d.RootCause)
	fmt.Printf(";;   party:       %s\n", d.Party)
	fmt.Printf(";;   remediation: %s\n", d.Remediation)
}

func parseType(s string) (dnswire.Type, bool) {
	switch strings.ToUpper(s) {
	case "A":
		return dnswire.TypeA, true
	case "AAAA":
		return dnswire.TypeAAAA, true
	case "NS":
		return dnswire.TypeNS, true
	case "SOA":
		return dnswire.TypeSOA, true
	case "CNAME":
		return dnswire.TypeCNAME, true
	case "MX":
		return dnswire.TypeMX, true
	case "TXT":
		return dnswire.TypeTXT, true
	case "DS":
		return dnswire.TypeDS, true
	case "DNSKEY":
		return dnswire.TypeDNSKEY, true
	case "NSEC":
		return dnswire.TypeNSEC, true
	case "NSEC3":
		return dnswire.TypeNSEC3, true
	case "NSEC3PARAM":
		return dnswire.TypeNSEC3PARAM, true
	}
	return 0, false
}
