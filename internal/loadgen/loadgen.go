// Package loadgen is the closed-loop DNS load generator behind cmd/edeload
// (which documents the model); the live tests of cmd/edeserver drive the
// same loop in-process.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// Config is one run: where, how, how hard and for how long.
type Config struct {
	Server      transport.Endpoint // a udp:// or tcp:// door
	QPS         float64            // target across all workers; 0 = unpaced closed loop
	Concurrency int                // workers, one outstanding query each
	Duration    time.Duration
	Warmup      time.Duration // load before measurement starts, not recorded
	Mix         []dnswire.Name
	QType       dnswire.Type
	Timeout     time.Duration // per query
	Keepalive   bool          // request edns-tcp-keepalive on tcp:// (RFC 7828)
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

// Run drives cfg's load for its warm-up and duration and returns the
// summary of the measured part.
func Run(cfg Config) Result {
	var (
		c    counters
		h    telemetry.Histogram // latency in seconds
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	measureStart := time.Now().Add(cfg.Warmup)
	end := measureStart.Add(cfg.Duration)

	// Pacing: each worker gets an equal share of the target rate. A worker
	// sleeps until its next slot; if the server is slower than the pace,
	// the closed loop (not a queue) absorbs the difference.
	perWorkerInterval := time.Duration(0)
	if cfg.QPS > 0 {
		perWorkerInterval = time.Duration(float64(cfg.Concurrency) / cfg.QPS * float64(time.Second))
	}

	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(cfg, w, &c, &h, &stop, measureStart, perWorkerInterval)
		}(w)
	}
	time.Sleep(time.Until(end))
	stop.Store(true)
	wg.Wait()

	elapsed := time.Since(measureStart).Seconds()
	if elapsed <= 0 {
		elapsed = cfg.Duration.Seconds()
	}
	return Result{
		Server:      cfg.Server.Addr,
		Transport:   cfg.Server.Scheme,
		TargetQPS:   cfg.QPS,
		Concurrency: cfg.Concurrency,
		DurationSec: elapsed,
		Sent:        c.sent.Load(),
		Responses:   c.responses.Load(),
		Timeouts:    c.timeouts.Load(),
		Errors:      c.errs.Load(),
		ServFails:   c.servfails.Load(),
		WithEDE:     c.withEDE.Load(),
		AchievedQPS: float64(c.responses.Load()) / elapsed,
		LatencyUS: LatencySummary{
			P50:  h.Quantile(0.50) * 1e6,
			P90:  h.Quantile(0.90) * 1e6,
			P99:  h.Quantile(0.99) * 1e6,
			P999: h.Quantile(0.999) * 1e6,
			Max:  h.Max() * 1e6,
		},
	}
}

// worker drives one closed loop until stop flips.
func worker(cfg Config, w int, c *counters, h *telemetry.Histogram, stop *atomic.Bool, measureStart time.Time, interval time.Duration) {
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
		q := dnswire.NewQuery(id, cfg.Mix[i%len(cfg.Mix)], cfg.QType)
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
		h.Observe(rtt.Seconds())
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
func dialWorker(cfg Config) (func(*dnswire.Message) (*dnswire.Message, error), func(), error) {
	switch cfg.Server.Scheme {
	case "tcp":
		sc := &transport.StreamClient{Addr: cfg.Server.Addr, RequestKeepalive: cfg.Keepalive}
		exchange := func(q *dnswire.Message) (*dnswire.Message, error) {
			ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
			defer cancel()
			return sc.Query(ctx, q)
		}
		return exchange, func() { sc.Close() }, nil
	default:
		conn, err := net.Dial("udp", cfg.Server.Addr)
		if err != nil {
			return nil, nil, err
		}
		buf := make([]byte, 0xFFFF)
		exchange := func(q *dnswire.Message) (*dnswire.Message, error) {
			wire, err := q.AppendPack(buf[:0])
			if err != nil {
				return nil, err
			}
			conn.SetDeadline(time.Now().Add(cfg.Timeout))
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
