// Command edeload is a closed-loop DNS load generator for the edeserver
// front door: N workers issue queries over UDP or TCP, optionally paced to
// a target QPS, and report achieved throughput plus an HDR-style latency
// distribution (p50/p90/p99/p999/max). The loop itself is internal/loadgen.
//
// Closed loop means a worker never has more than one query outstanding:
// the offered load adapts to the server instead of queueing unboundedly,
// so the achieved-QPS number is an honest capacity measurement.
//
//	edeserver -addr 127.0.0.1:5353 &
//	edeload -server 127.0.0.1:5353 -duration 5s -concurrency 8
//	edeload -server 127.0.0.1:5353 -qps 5000 -qnames valid.extended-dns-errors.com,dnskey-none.extended-dns-errors.com
//	edeload -server 127.0.0.1:5353 -transport tcp -keepalive -json -
//
// The qname mix cycles per worker, so a 4-name mix under -concurrency 8
// keeps every name warm in the server's cache. -json writes the summary as
// JSON to a file for scripted consumption; with "-json -" stdout carries the
// JSON alone and the text summary goes to stderr.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/loadgen"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; the return value is
// the exit status: 1 when the run got no response (or its summary could not
// be written), 2 for a command line that cannot be honoured as written.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edeload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "127.0.0.1:5353", "DNS server to load (host:port)")
	trans := fs.String("transport", "udp", "udp or tcp")
	qps := fs.Float64("qps", 0, "target queries per second across all workers (0 = unpaced closed loop)")
	concurrency := fs.Int("concurrency", 8, "worker goroutines, one outstanding query each")
	duration := fs.Duration("duration", 5*time.Second, "measurement length, after -warmup")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "load before measurement starts (fills caches, not recorded)")
	qnames := fs.String("qnames", "valid.extended-dns-errors.com", "comma-separated qname mix, cycled per worker")
	qtypeFlag := fs.String("qtype", "A", "query type for every qname")
	timeout := fs.Duration("timeout", 2*time.Second, "per-query timeout")
	keepalive := fs.Bool("keepalive", false, "request edns-tcp-keepalive on TCP (RFC 7828)")
	jsonOut := fs.String("json", "", "write the JSON summary to this file ('-' = stdout, the text summary then on stderr; empty = text only)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	exit := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "edeload: "+format+"\n", a...)
		return code
	}

	mix, err := parseQnames(*qnames)
	if err != nil {
		return exit(2, "%v", err)
	}
	qtype, ok := parseQType(*qtypeFlag)
	switch {
	case fs.NArg() > 0:
		return exit(2, "unexpected argument %q", fs.Arg(0))
	case !ok:
		return exit(2, "unknown -qtype %q", *qtypeFlag)
	case *trans != "udp" && *trans != "tcp":
		return exit(2, "-transport must be udp or tcp")
	}

	r := loadgen.Run(loadgen.Config{
		Server: *server, Transport: *trans, QPS: *qps,
		Concurrency: *concurrency, Duration: *duration, Warmup: *warmup,
		Mix: mix, QType: qtype, Timeout: *timeout, Keepalive: *keepalive,
	})

	text := stdout
	if *jsonOut == "-" {
		text = stderr
	}
	fmt.Fprint(text, r)
	if *jsonOut != "" {
		enc, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return exit(1, "%v", err)
		}
		enc = append(enc, '\n')
		if *jsonOut == "-" {
			stdout.Write(enc)
		} else if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			return exit(1, "%v", err)
		}
	}
	if r.Responses == 0 {
		return exit(1, "no responses from %s", *server)
	}
	return 0
}

// parseQnames splits and validates the comma-separated qname mix.
func parseQnames(s string) ([]dnswire.Name, error) {
	var mix []dnswire.Name
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := dnswire.NewName(part)
		if err != nil {
			return nil, fmt.Errorf("-qnames %q: %w", part, err)
		}
		mix = append(mix, n)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("-qnames: empty mix")
	}
	return mix, nil
}

// parseQType maps the handful of types a load test plausibly asks for.
func parseQType(s string) (dnswire.Type, bool) {
	switch strings.ToUpper(s) {
	case "A":
		return dnswire.TypeA, true
	case "AAAA":
		return dnswire.TypeAAAA, true
	case "NS":
		return dnswire.TypeNS, true
	case "TXT":
		return dnswire.TypeTXT, true
	case "SOA":
		return dnswire.TypeSOA, true
	case "DNSKEY":
		return dnswire.TypeDNSKEY, true
	case "DS":
		return dnswire.TypeDS, true
	}
	return 0, false
}
