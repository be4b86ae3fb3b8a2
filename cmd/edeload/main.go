// Command edeload is a closed-loop DNS load generator for the edeserver
// front door: N workers issue queries over UDP or TCP, optionally paced to
// a target QPS, and report achieved throughput plus an HDR-style latency
// distribution (p50/p90/p99/p999/max).
//
// Closed loop means a worker never has more than one query outstanding:
// the offered load adapts to the server instead of queueing unboundedly,
// so the achieved-QPS number is an honest capacity measurement.
//
//	edeserver -mode resolver -addr 127.0.0.1:5353 &
//	edeload -server 127.0.0.1:5353 -duration 5s -concurrency 8
//	edeload -server 127.0.0.1:5353 -qps 5000 -qnames valid.extended-dns-errors.com,dnskey-none.extended-dns-errors.com
//	edeload -server 127.0.0.1:5353 -transport tcp -keepalive -json -
//
// The qname mix cycles per worker, so a 4-name mix under -concurrency 8
// keeps every name warm in the server's cache. -json writes the summary as
// JSON to a file ("-" for stdout) for scripted consumption (CI gates).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

func main() {
	server := flag.String("server", "127.0.0.1:5353", "DNS server to load (host:port)")
	trans := flag.String("transport", "udp", "udp or tcp")
	qps := flag.Float64("qps", 0, "target queries per second across all workers (0 = unpaced closed loop)")
	concurrency := flag.Int("concurrency", 8, "worker goroutines, one outstanding query each")
	duration := flag.Duration("duration", 5*time.Second, "measurement length, after -warmup")
	warmup := flag.Duration("warmup", 500*time.Millisecond, "load before measurement starts (fills caches, not recorded)")
	qnames := flag.String("qnames", "valid.extended-dns-errors.com", "comma-separated qname mix, cycled per worker")
	qtypeFlag := flag.String("qtype", "A", "query type for every qname")
	timeout := flag.Duration("timeout", 2*time.Second, "per-query timeout")
	keepalive := flag.Bool("keepalive", false, "request edns-tcp-keepalive on TCP (RFC 7828)")
	jsonOut := flag.String("json", "", "write the JSON summary to this file ('-' = stdout; empty = text only)")
	flag.Parse()

	mix, err := parseQnames(*qnames)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edeload: %v\n", err)
		os.Exit(2)
	}
	qtype, ok := parseQType(*qtypeFlag)
	if !ok {
		fmt.Fprintf(os.Stderr, "edeload: unknown -qtype %q\n", *qtypeFlag)
		os.Exit(2)
	}
	if *trans != "udp" && *trans != "tcp" {
		fmt.Fprintf(os.Stderr, "edeload: -transport must be udp or tcp\n")
		os.Exit(2)
	}

	r := run(runConfig{
		server: *server, transport: *trans, qps: *qps,
		concurrency: *concurrency, duration: *duration, warmup: *warmup,
		mix: mix, qtype: qtype, timeout: *timeout, keepalive: *keepalive,
	})

	fmt.Print(r)
	if *jsonOut != "" {
		enc, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "edeload: %v\n", err)
			os.Exit(1)
		}
		enc = append(enc, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(enc)
		} else if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "edeload: %v\n", err)
			os.Exit(1)
		}
	}
	if r.Responses == 0 {
		os.Exit(1)
	}
}

type runConfig struct {
	server      string
	transport   string
	qps         float64
	concurrency int
	duration    time.Duration
	warmup      time.Duration
	mix         []dnswire.Name
	qtype       dnswire.Type
	timeout     time.Duration
	keepalive   bool
}

// Result is the machine-readable summary one run produces.
type Result struct {
	Server      string  `json:"server"`
	Transport   string  `json:"transport"`
	TargetQPS   float64 `json:"target_qps"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"`

	Sent        uint64  `json:"sent"`
	Responses   uint64  `json:"responses"`
	Timeouts    uint64  `json:"timeouts"`
	Errors      uint64  `json:"errors"`
	ServFails   uint64  `json:"servfails"`
	WithEDE     uint64  `json:"with_ede"`
	AchievedQPS float64 `json:"achieved_qps"`

	LatencyUS LatencySummary `json:"latency_us"`
}

// LatencySummary is the latency distribution in microseconds.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "edeload: %s via %s, %d workers", r.Server, r.Transport, r.Concurrency)
	if r.TargetQPS > 0 {
		fmt.Fprintf(&b, ", paced to %.0f qps", r.TargetQPS)
	}
	fmt.Fprintf(&b, ", %.1fs\n", r.DurationSec)
	fmt.Fprintf(&b, "  sent %d  responses %d  timeouts %d  errors %d  servfail %d  with-EDE %d\n",
		r.Sent, r.Responses, r.Timeouts, r.Errors, r.ServFails, r.WithEDE)
	fmt.Fprintf(&b, "  achieved %.0f qps\n", r.AchievedQPS)
	fmt.Fprintf(&b, "  latency p50 %.0fµs  p90 %.0fµs  p99 %.0fµs  p99.9 %.0fµs  max %.0fµs\n",
		r.LatencyUS.P50, r.LatencyUS.P90, r.LatencyUS.P99, r.LatencyUS.P999, r.LatencyUS.Max)
	return b.String()
}

// counters are the shared atomic tallies the workers feed.
type counters struct {
	sent, responses, timeouts, errs, servfails, withEDE atomic.Uint64
}

func run(cfg runConfig) Result {
	var (
		c    counters
		h    = newHist()
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	measureStart := time.Now().Add(cfg.warmup)
	end := measureStart.Add(cfg.duration)

	// Pacing: each worker gets an equal share of the target rate. A worker
	// sleeps until its next slot; if the server is slower than the pace,
	// the closed loop (not a queue) absorbs the difference.
	perWorkerInterval := time.Duration(0)
	if cfg.qps > 0 {
		perWorkerInterval = time.Duration(float64(cfg.concurrency) / cfg.qps * float64(time.Second))
	}

	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(cfg, w, &c, h, &stop, measureStart, perWorkerInterval)
		}(w)
	}
	time.Sleep(time.Until(end))
	stop.Store(true)
	wg.Wait()

	elapsed := time.Since(measureStart).Seconds()
	if elapsed <= 0 {
		elapsed = cfg.duration.Seconds()
	}
	return Result{
		Server:      cfg.server,
		Transport:   cfg.transport,
		TargetQPS:   cfg.qps,
		Concurrency: cfg.concurrency,
		DurationSec: elapsed,
		Sent:        c.sent.Load(),
		Responses:   c.responses.Load(),
		Timeouts:    c.timeouts.Load(),
		Errors:      c.errs.Load(),
		ServFails:   c.servfails.Load(),
		WithEDE:     c.withEDE.Load(),
		AchievedQPS: float64(c.responses.Load()) / elapsed,
		LatencyUS: LatencySummary{
			P50:  float64(h.quantile(0.50)) / 1e3,
			P90:  float64(h.quantile(0.90)) / 1e3,
			P99:  float64(h.quantile(0.99)) / 1e3,
			P999: float64(h.quantile(0.999)) / 1e3,
			Max:  float64(h.maxNS.Load()) / 1e3,
		},
	}
}

// worker drives one closed loop until stop flips.
func worker(cfg runConfig, w int, c *counters, h *hist, stop *atomic.Bool, measureStart time.Time, interval time.Duration) {
	exchange, closeFn, err := dialWorker(cfg)
	if err != nil {
		c.errs.Add(1)
		return
	}
	defer closeFn()

	id := uint16(w*7919 + 1)
	next := time.Now()
	for i := 0; !stop.Load(); i++ {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		q := dnswire.NewQuery(id, cfg.mix[i%len(cfg.mix)], cfg.qtype)
		id++
		if id == 0 {
			id = 1
		}
		record := time.Now().After(measureStart)
		start := time.Now()
		resp, err := exchange(q)
		rtt := time.Since(start)
		if !record {
			continue
		}
		c.sent.Add(1)
		if err != nil {
			if isTimeout(err) {
				c.timeouts.Add(1)
			} else {
				c.errs.Add(1)
			}
			continue
		}
		c.responses.Add(1)
		h.record(rtt.Nanoseconds())
		if resp.RCode == dnswire.RCodeServFail {
			c.servfails.Add(1)
		}
		if len(resp.EDECodes()) > 0 {
			c.withEDE.Add(1)
		}
	}
}

// dialWorker opens this worker's connection and returns its exchange
// function. UDP matches responses by ID on a private socket; TCP reuses one
// framed connection via StreamClient.
func dialWorker(cfg runConfig) (func(*dnswire.Message) (*dnswire.Message, error), func(), error) {
	switch cfg.transport {
	case "tcp":
		sc := &transport.StreamClient{Addr: cfg.server, RequestKeepalive: cfg.keepalive}
		exchange := func(q *dnswire.Message) (*dnswire.Message, error) {
			ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
			defer cancel()
			return sc.Query(ctx, q)
		}
		return exchange, func() { sc.Close() }, nil
	default:
		conn, err := net.Dial("udp", cfg.server)
		if err != nil {
			return nil, nil, err
		}
		buf := make([]byte, 0xFFFF)
		exchange := func(q *dnswire.Message) (*dnswire.Message, error) {
			wire, err := q.AppendPack(buf[:0])
			if err != nil {
				return nil, err
			}
			conn.SetDeadline(time.Now().Add(cfg.timeout))
			if _, err := conn.Write(wire); err != nil {
				return nil, err
			}
			for {
				n, err := conn.Read(buf)
				if err != nil {
					return nil, err
				}
				resp, err := dnswire.Unpack(buf[:n])
				if err != nil {
					continue // garbage or stray datagram; keep waiting
				}
				if resp.ID != q.ID {
					continue // straggler from a timed-out round
				}
				return resp, nil
			}
		}
		return exchange, func() { conn.Close() }, nil
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
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
