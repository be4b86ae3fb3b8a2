// Package scan implements the paper's Section 4 measurement pipeline: a
// zdns-style concurrent scanner issuing A queries for every registered
// domain through a recursive resolver, and the aggregation that regenerates
// the §4.2 per-code counts, Figure 1 (per-TLD concentration CDF), Figure 2
// (Tranco-rank CDF), and the §4.2 item 2 nameserver concentration analysis.
package scan

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/population"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

// Result is one scanned domain's outcome.
type Result struct {
	Domain dnswire.Name
	RCode  dnswire.RCode
	Codes  []uint16
	// ExtraTexts holds the EXTRA-TEXT of each EDE option, aligned with
	// Codes.
	ExtraTexts []string
	// Secure reports a validated chain (AD).
	Secure bool
	// Skipped marks a domain the scan never resolved because the context
	// was cancelled first; its other fields are zero.
	Skipped bool
	// Conditions and Details are the resolution's own
	// (resolver.Result.Conditions and Details), shared, not copied: what
	// ReportedBy turns into another profile's EDE options.
	Conditions []resolver.Condition
	Details    map[resolver.Condition]string
}

// HasEDE reports whether the domain triggered at least one EDE.
func (r Result) HasEDE() bool { return len(r.Codes) > 0 }

// ReportedBy returns r as profile p reports it: the same RCODE and AD bit,
// with the EDE options p attaches for r's conditions (resolver.Profile.Report).
// It is the result p's own resolver would have produced when p shares the
// scanning resolver's behaviour class (resolver.Profile.SameBehaviour).
func (r Result) ReportedBy(p *resolver.Profile) Result {
	r.setEDEs(p.Report(r.Conditions, r.Details))
	return r
}

// setEDEs fills Codes and ExtraTexts from a response's EDE options.
func (r *Result) setEDEs(edes []dnswire.EDEOption) {
	r.Codes, r.ExtraTexts = nil, nil
	if len(edes) > 0 {
		r.Codes = make([]uint16, len(edes))
		r.ExtraTexts = make([]string, len(edes))
		for i, e := range edes {
			r.Codes[i] = e.InfoCode
			r.ExtraTexts[i] = e.ExtraText
		}
	}
}

// Gate bounds how many resolutions may run at once, independently of the
// worker count: a campaign governor shrinks the effective concurrency under
// fault pressure by holding slots back, without tearing down workers.
// Acquire blocks until a slot frees (returning early if ctx ends — the
// resolver then observes the cancellation itself); Release returns the slot.
type Gate interface {
	Acquire(ctx context.Context)
	Release()
}

// Scanner drives concurrent resolutions, zdns-style.
type Scanner struct {
	Resolver *resolver.Resolver
	// Workers is the concurrency level (default 32).
	Workers int
	// Gate, when set, is acquired around every resolution (never around the
	// cancellation drain), letting a campaign governor adapt the effective
	// concurrency below Workers.
	Gate Gate
	// QueryCount, Resolutions, and Elapsed are filled by Scan/ScanStream for
	// the §5 rate analysis.
	QueryCount  uint64
	Resolutions uint64
	Elapsed     time.Duration
	// QueriesPerResolution is the scan's query-amplification factor
	// (QueryCount / Resolutions); the delegation cache drives it toward 1.
	QueriesPerResolution float64
}

// NewScanner builds a scanner over r.
func NewScanner(r *resolver.Resolver) *Scanner {
	return &Scanner{Resolver: r, Workers: 32}
}

// NameSource feeds names to ScanStream one at a time, so a scan never has to
// materialize its whole target list. Next is called serially by the scanner;
// implementations need not be safe for concurrent use.
type NameSource interface {
	// Next returns the next name to scan, or ok=false when exhausted.
	Next() (dnswire.Name, bool)
}

// sliceSource adapts an in-memory name list to a NameSource.
type sliceSource struct {
	names []dnswire.Name
	i     int
}

func (s *sliceSource) Next() (dnswire.Name, bool) {
	if s.i >= len(s.names) {
		return "", false
	}
	n := s.names[s.i]
	s.i++
	return n, true
}

// SliceSource returns a NameSource over an in-memory list.
func SliceSource(names []dnswire.Name) NameSource { return &sliceSource{names: names} }

// run is the shared worker core behind Scan and ScanStream. next hands out
// (name, sequence) pairs and must be safe for concurrent calls; emit receives
// each finished result with its sequence number and must be safe for
// concurrent calls. Cancelling ctx stops resolution promptly: the remaining
// names are drained from next and emitted with Skipped set, preserving
// one-emit-per-name accounting.
func (s *Scanner) run(ctx context.Context, next func() (dnswire.Name, int, bool), emit func(int, Result)) {
	workers := s.Workers
	if workers <= 0 {
		workers = 32
	}
	start := time.Now()
	queriesBefore := s.Resolver.QueryCount.Load()
	resolutionsBefore := s.Resolver.ResolutionCount.Load()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				name, seq, ok := next()
				if !ok {
					return
				}
				if ctx.Err() != nil {
					emit(seq, Result{Domain: name, Skipped: true})
					continue
				}
				if s.Gate != nil {
					s.Gate.Acquire(ctx)
				}
				res := s.Resolver.Resolve(ctx, name, dnswire.TypeA)
				if s.Gate != nil {
					s.Gate.Release()
				}
				if res.Cancelled {
					// The resolver was interrupted mid-lookup: the domain
					// was never measured, not lame.
					emit(seq, Result{Domain: name, Skipped: true})
					continue
				}
				out := Result{
					Domain:     name,
					RCode:      res.Msg.RCode,
					Secure:     res.Msg.AuthenticData,
					Conditions: res.Conditions,
					Details:    res.Details,
				}
				out.setEDEs(res.Msg.EDEs())
				emit(seq, out)
			}
		}()
	}
	wg.Wait()

	s.Elapsed = time.Since(start)
	s.QueryCount = s.Resolver.QueryCount.Load() - queriesBefore
	s.Resolutions = s.Resolver.ResolutionCount.Load() - resolutionsBefore
	if s.Resolutions > 0 {
		s.QueriesPerResolution = float64(s.QueryCount) / float64(s.Resolutions)
	}
}

// Scan resolves the A record of every name and returns results in input
// order. Cancelling ctx stops the scan promptly: names not yet resolved are
// returned with Skipped set instead of being drained through the resolver.
// It is a thin slice-shaped wrapper over the streaming core.
func (s *Scanner) Scan(ctx context.Context, names []dnswire.Name) []Result {
	// Work is handed out through an atomic counter rather than a channel: a
	// channel send/receive is a synchronization point between the dispatcher
	// and a worker on every single domain, which serializes short resolutions
	// (cache hits). Each worker claims the next index with one atomic add.
	results := make([]Result, len(names))
	var next atomic.Int64
	s.run(ctx,
		func() (dnswire.Name, int, bool) {
			i := int(next.Add(1)) - 1
			if i >= len(names) {
				return "", 0, false
			}
			return names[i], i, true
		},
		func(i int, r Result) { results[i] = r },
	)
	return results
}

// ScanStream resolves every name src yields and hands each finished Result
// to sink, never holding more than O(workers) results live: the scan's
// memory footprint is independent of the population size. sink is called
// serially (no locking needed inside) in completion order, which is not the
// source order; a caller that must know which names a sink call accounts
// for reads it off Result.Domain. It returns the number of results emitted.
func (s *Scanner) ScanStream(ctx context.Context, src NameSource, sink func(Result)) int {
	var srcMu, sinkMu sync.Mutex
	n := 0
	s.run(ctx,
		func() (dnswire.Name, int, bool) {
			srcMu.Lock()
			defer srcMu.Unlock()
			name, ok := src.Next()
			return name, 0, ok
		},
		func(_ int, r Result) {
			sinkMu.Lock()
			defer sinkMu.Unlock()
			n++
			sink(r)
		})
	return n
}

// WarmScanner is the paper's §4 scan protocol up to the measurement pass, and
// the only place it is written down: build the resolver, resolve
// population.Wild.WarmupDomains at population.ScanTime (standing in for the
// client traffic that had filled the production resolver's cache), set the
// wild clock to population.MeasureTime, when those entries have expired into
// stale range and the stale class's authorities have gone dark (so passes
// over one wild do not depend on each other), and pin the answer cache
// read-only. Read-only is part of the protocol for every caller: scan names
// are unique, so storing their answers buys no hit and grows the heap with
// the population, while the warmed entries serve-stale needs can no longer
// be evicted. The scanner returned is ready for the measurement pass over
// w.Pop. tc is the resolver transport policy (nil is single-shot); workers
// <= 0 keeps the default. The warm-up is unthrottled and deterministic, so a
// resumed campaign shard reproduces serve-stale outcomes exactly; a caller
// that can be cancelled checks ctx.Err afterwards.
func WarmScanner(ctx context.Context, w *population.Wild, profile *resolver.Profile, workers int, tc *resolver.TransportConfig) *Scanner {
	r := resolver.New(w.Net, w.Roots, w.Anchor, profile)
	r.Now = w.Now
	r.Transport = tc
	s := NewScanner(r)
	if workers > 0 {
		s.Workers = workers
	}
	w.SetClock(population.ScanTime)
	s.Scan(ctx, w.WarmupDomains())
	w.SetClock(population.MeasureTime)
	r.AnswerCacheReadOnly = true
	return s
}
