package resolver

import (
	"context"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/fnv1a"
)

// DefaultQueryTimeout is the per-attempt upstream timeout when the transport
// config leaves it unset — the fixed value the resolver historically
// hard-coded.
const DefaultQueryTimeout = 2 * time.Second

// TransportConfig tunes how the resolver talks to authoritative servers: the
// per-attempt timeout, the retry policy, and backoff pacing. The zero value
// reproduces the historical single-shot behaviour (one 2-second attempt per
// server, no backoff), which the Table 4 conformance matrix depends on.
type TransportConfig struct {
	// Timeout bounds each query attempt: it is the budget the simulated
	// network charges an exchange's latency against. The parent context is
	// checked before every attempt, so a cancelled scan stops mid-lookup.
	// Zero means DefaultQueryTimeout.
	Timeout time.Duration
	// Retries is how many times each server is attempted before moving to
	// the next. Zero means 1 — the single-shot behaviour of a zdns-style
	// scanner; interactive resolvers typically retry lost datagrams.
	Retries int
	// RetryBudget caps the total attempts one queryServers round may spend
	// across all servers, so a long NS list under total loss cannot stall a
	// scan. Zero means unbounded.
	RetryBudget int
	// Backoff is the base delay before the second attempt to a server; it
	// doubles each further attempt, up to backoffCap×Backoff, with ±50%
	// deterministic jitter derived from the server address and attempt
	// number (replayable, no shared RNG). Zero disables backoff entirely.
	Backoff time.Duration
	// Sleep is the backoff clock, injectable so chaos tests run at full
	// speed. Nil means a real context-aware sleep.
	Sleep func(context.Context, time.Duration)
	// Admit, when set, is called with the target authority before every
	// query attempt and blocks until the caller's rate policy admits it —
	// the campaign engine installs its per-authority token buckets and
	// global qps cap here. It must return nil to proceed; the only non-nil
	// error it may return is ctx.Err(), which abandons the resolution as
	// cancelled.
	Admit func(ctx context.Context, addr netip.Addr) error
}

func (tc *TransportConfig) timeout() time.Duration {
	if tc != nil && tc.Timeout > 0 {
		return tc.Timeout
	}
	return DefaultQueryTimeout
}

func (tc *TransportConfig) retries() int {
	if tc != nil && tc.Retries > 0 {
		return tc.Retries
	}
	return 1
}

func (tc *TransportConfig) budget() int {
	if tc != nil {
		return tc.RetryBudget
	}
	return 0
}

const backoffCap = 8 // a server's backoff stops doubling at backoffCap × Backoff

// backoffFor computes the pre-attempt delay: exponential in the attempt
// number with deterministic hash jitter. attempt 0 (the first try) never
// waits.
func (tc *TransportConfig) backoffFor(addr netip.Addr, attempt int) time.Duration {
	if tc == nil || tc.Backoff <= 0 || attempt == 0 {
		return 0
	}
	d := min(tc.Backoff<<(attempt-1), backoffCap*tc.Backoff)
	// Half the delay is fixed, half is jitter drawn from a hash of the
	// (address, attempt) pair — decorrelated across servers yet a pure
	// function of the inputs, so replays are exact.
	half := d / 2
	if half > 0 {
		d = half + time.Duration(addrSeedJitter(addr, attempt)%uint64(half))
	}
	return d
}

// addrSeedJitter is an FNV-1a hash over the address bytes and attempt index.
func addrSeedJitter(addr netip.Addr, attempt int) uint64 {
	b := addr.As16()
	return (fnv1a.Sum64(b[:]) ^ uint64(attempt)) * fnv1a.Prime64
}

func (tc *TransportConfig) sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if tc != nil && tc.Sleep != nil {
		tc.Sleep(ctx, d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// srttTable tracks a smoothed RTT per authoritative server so queryServers
// can prefer the historically fastest one. Entries exist only for servers
// that have reported a non-zero RTT or timed out after doing so; on a
// perfect network (every RTT zero) the table stays empty and server order is
// untouched — which keeps the fault-free Table 4 matrix byte-stable.
type srttTable struct {
	entries sync.Map // netip.Addr -> *srttEntry
	count   atomic.Int64
}

type srttEntry struct {
	micros atomic.Int64 // smoothed RTT in microseconds
}

// observe folds a measured RTT into the server's SRTT with the classic
// EWMA (7/8 old + 1/8 new). Zero RTTs are ignored.
func (t *srttTable) observe(addr netip.Addr, rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	us := rtt.Microseconds()
	if us <= 0 {
		us = 1
	}
	v, ok := t.entries.Load(addr)
	if !ok {
		e := &srttEntry{}
		e.micros.Store(us)
		if actual, loaded := t.entries.LoadOrStore(addr, e); loaded {
			v = actual
		} else {
			t.count.Add(1)
			return
		}
	}
	e := v.(*srttEntry)
	for {
		old := e.micros.Load()
		next := (old*7 + us) / 8
		if next <= 0 {
			next = 1
		}
		if e.micros.CompareAndSwap(old, next) {
			return
		}
	}
}

// penalize doubles the SRTT of a server that timed out, decaying its
// preference. Servers with no recorded SRTT are left alone so that a silent
// endpoint on a perfect network never perturbs ordering.
func (t *srttTable) penalize(addr netip.Addr) {
	v, ok := t.entries.Load(addr)
	if !ok {
		return
	}
	e := v.(*srttEntry)
	for {
		old := e.micros.Load()
		next := old * 2
		const ceiling = int64(30 * time.Second / time.Microsecond)
		if next > ceiling {
			next = ceiling
		}
		if e.micros.CompareAndSwap(old, next) {
			return
		}
	}
}

func (t *srttTable) get(addr netip.Addr) int64 {
	if v, ok := t.entries.Load(addr); ok {
		return v.(*srttEntry).micros.Load()
	}
	return 0
}

// order returns servers sorted fastest-first by SRTT; servers without a
// record (SRTT 0) sort first, so unknown servers are probed optimistically.
// The sort is stable and skipped entirely when the table is empty, keeping
// the fault-free path allocation-free and order-preserving.
func (t *srttTable) order(servers []netip.Addr) []netip.Addr {
	if len(servers) < 2 || t.count.Load() == 0 {
		return servers
	}
	type ranked struct {
		addr netip.Addr
		us   int64
	}
	rs := make([]ranked, len(servers))
	any := false
	for i, s := range servers {
		rs[i] = ranked{s, t.get(s)}
		if rs[i].us != 0 {
			any = true
		}
	}
	if !any {
		return servers
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].us < rs[j].us })
	out := make([]netip.Addr, len(servers))
	for i, r := range rs {
		out[i] = r.addr
	}
	return out
}
