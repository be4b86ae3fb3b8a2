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
// -server names the door by its scheme, so besides UDP it speaks every
// front-door transport edeserver exposes:
//
//	ededig -server tcp://127.0.0.1:5353 rrsig-exp-all.extended-dns-errors.com
//	ededig -server tls://127.0.0.1:8853 -insecure rrsig-exp-all.extended-dns-errors.com
//	ededig -server https://127.0.0.1:8443/dns-query -insecure -doh-post valid.extended-dns-errors.com
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
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; the return value is
// the exit status: 1 when the query fails, 2 for a command line that cannot
// be honoured as written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ededig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "udp://127.0.0.1:5353", "DNS server: udp://, tcp://, tls:// (DoT) or https:// (DoH) and host:port; a bare host:port is udp")
	qtypeName := fs.String("type", "A", "query type (A, AAAA, NS, SOA, TXT, DS, DNSKEY, NSEC3PARAM)")
	timeout := fs.Duration("timeout", 3*time.Second, "query timeout")
	noDO := fs.Bool("cd-only", false, "clear the DO bit")
	cd := fs.Bool("cd", false, "set the CD (checking disabled) bit: receive bogus data with its EDE diagnostics instead of SERVFAIL")
	dohPost := fs.Bool("doh-post", false, "with an https:// server, use the POST application/dns-message form instead of GET ?dns=")
	insecure := fs.Bool("insecure", false, "skip TLS certificate verification on a tls:// or https:// server (edeserver's default cert is self-signed)")
	traceMode := fs.Bool("trace", false, "resolve in-process against the built-in testbed and render the resolution trace (-cd applies; the wire options -server, -timeout, -insecure, -doh-post and -cd-only do not)")
	profileName := fs.String("profile", "cloudflare", "vendor profile for -trace (cloudflare, bind, unbound, powerdns, knot, quad9, opendns)")
	chaosSpec := fs.String("chaos", "", "with -trace, inject a fault profile (e.g. \"loss=0.3,lat=20ms\") into every testbed path")
	chaosSeed := fs.Uint64("chaos-seed", 20230515, "with -chaos, seed for the deterministic fault streams")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	exit := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "ededig: "+format+"\n", a...)
		return code
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ededig [flags] <name>")
		fs.PrintDefaults()
		return 2
	}
	name, err := dnswire.NewName(fs.Arg(0))
	if err != nil {
		return exit(2, "bad name: %v", err)
	}
	qtype, ok := parseType(*qtypeName)
	if !ok {
		return exit(2, "unknown type %q", *qtypeName)
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case set["chaos-seed"] && *chaosSpec == "":
		return exit(2, "-chaos-seed requires -chaos")
	case set["profile"] && !*traceMode:
		return exit(2, "-profile requires -trace (it picks the in-process resolver)")
	case *traceMode && (set["server"] || set["timeout"] || set["insecure"] || set["doh-post"] || set["cd-only"]):
		return exit(2, "-server, -timeout, -insecure, -doh-post and -cd-only are wire options; -trace resolves in-process")
	}

	if *traceMode {
		prof, ok := resolver.ProfileByName(*profileName)
		if !ok {
			return exit(2, "unknown profile %q", *profileName)
		}
		var fp *netsim.FaultProfile
		if *chaosSpec != "" {
			p, err := netsim.ParseFaultProfile(*chaosSpec)
			if err != nil {
				return exit(2, "bad -chaos spec: %v", err)
			}
			fp = &p
		}
		if err := runTrace(stdout, name, qtype, *cd, prof, fp, *chaosSeed); err != nil {
			return exit(1, "%v", err)
		}
		return 0
	}
	ep, err := transport.ParseEndpoint(*server)
	switch {
	case *chaosSpec != "":
		return exit(2, "-chaos requires -trace (faults are injected into the in-process testbed)")
	case err != nil:
		return exit(2, "-server: %v", err)
	case ep.ReusePort != 0:
		return exit(2, "-server: reuseport shares a listening address; a client has none")
	case *dohPost && ep.Scheme != "https":
		return exit(2, "-doh-post needs an https:// server, not %s", ep)
	case *insecure && ep.Scheme != "tls" && ep.Scheme != "https":
		return exit(2, "-insecure needs a tls:// or https:// server, not %s", ep)
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
	var resp *dnswire.Message
	start := time.Now()
	switch ep.Scheme {
	case "https":
		client := http.DefaultClient
		if tlsConf != nil {
			client = &http.Client{Transport: &http.Transport{TLSClientConfig: tlsConf}}
		}
		resp, err = transport.QueryDoH(ctx, client, ep.String(), q, *dohPost)
	case "tls":
		resp, err = transport.QueryDoT(ctx, ep.Addr, tlsConf, q)
	case "tcp":
		resp, err = transport.QueryTCP(ctx, ep.Addr, q)
	default:
		resp, err = transport.QueryUDP(ctx, ep.Addr, q)
	}
	rtt := time.Since(start)
	if err != nil {
		return exit(1, "query failed: %v", err)
	}

	fmt.Fprint(stdout, resp.String())
	fmt.Fprintf(stdout, ";; Query time: %d msec\n", rtt.Milliseconds())
	fmt.Fprintf(stdout, ";; SERVER: %s (%s)\n", ep, ep.Door())
	printEDEs(stdout, resp)
	printDiagnosis(stdout, resp)
	return 0
}

// runTrace resolves the name against the in-process testbed with a live
// trace in the context, then renders the span tree the resolver built; cd
// asks for the CD-bit answer as -cd does on the wire.
// A fault profile installs a deterministic fault plan on every testbed
// path, seeded so the same invocation replays the same failures.
func runTrace(w io.Writer, name dnswire.Name, qtype dnswire.Type, cd bool, prof *resolver.Profile, fp *netsim.FaultProfile, chaosSeed uint64) error {
	tb, err := testbed.Build()
	if err != nil {
		return fmt.Errorf("building testbed: %w", err)
	}
	if fp != nil {
		tb.Net.SetFaults(netsim.NewFaultPlan(chaosSeed, *fp))
		fmt.Fprintf(w, ";; chaos: %s\n", fp.String())
		fmt.Fprintf(w, ";; effective seed: %d\n", chaosSeed)
	}
	res := tb.NewResolver(prof)
	ctx, tr := telemetry.StartTrace(context.Background(), fmt.Sprintf("%s %s", name, qtype))
	start := time.Now()
	result := res.ResolveWithOptions(ctx, name, qtype, resolver.QueryOptions{CheckingDisabled: cd})
	rtt := time.Since(start)
	tr.Root().End()

	fmt.Fprint(w, result.Msg.String())
	fmt.Fprintf(w, ";; Query time: %d msec (in-process resolution, %s profile)\n",
		rtt.Milliseconds(), res.Profile.Name)
	printEDEs(w, result.Msg)
	printDiagnosis(w, result.Msg)
	fmt.Fprintln(w, ";; RESOLUTION TRACE:")
	fmt.Fprint(w, tr.Render())
	return nil
}

// printEDEs decodes every EDE option in resp against the IANA registry.
func printEDEs(w io.Writer, resp *dnswire.Message) {
	edes := resp.EDEs()
	if len(edes) == 0 {
		fmt.Fprintln(w, ";; no Extended DNS Errors")
		return
	}
	fmt.Fprintln(w, ";; EXTENDED DNS ERRORS:")
	for _, e := range edes {
		info, _ := ede.Lookup(ede.Code(e.InfoCode))
		line := fmt.Sprintf(";;   %d (%s) [%s]", e.InfoCode, ede.Code(e.InfoCode).Name(), info.Category)
		if e.ExtraText != "" {
			line += fmt.Sprintf(": %q", e.ExtraText)
		}
		fmt.Fprintln(w, line)
	}
}

// printDiagnosis runs the troubleshooting engine over the response.
func printDiagnosis(w io.Writer, resp *dnswire.Message) {
	d := ede.Diagnose(ede.Observe(resp))
	fmt.Fprintln(w, ";; DIAGNOSIS:")
	fmt.Fprintf(w, ";;   severity:    %s\n", d.Severity)
	fmt.Fprintf(w, ";;   root cause:  %s\n", d.RootCause)
	fmt.Fprintf(w, ";;   party:       %s\n", d.Party)
	fmt.Fprintf(w, ";;   remediation: %s\n", d.Remediation)
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
