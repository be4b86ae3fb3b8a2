package frontend

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/forwarder"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/resolver"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// Config tunes the frontend. The zero value gets production-ish defaults
// from New (WithDefaults).
type Config struct {
	// Shards is the cache shard count (rounded up to a power of two, but
	// never above Capacity).
	Shards int
	// Capacity bounds the total number of cached entries. Behind a
	// frontend the resolver stores no client answer, so this is the serving
	// stack's one bound on them.
	Capacity int
	// MaxInflight bounds concurrent upstream recursions; excess queries are
	// shed with SERVFAIL + EDE 23 rather than piling up goroutines.
	MaxInflight int
	// QueryTimeout is the per-query upstream deadline.
	QueryTimeout time.Duration
	// StaleWindow is how long past expiry an entry may be served stale
	// (RFC 8767 §5 suggests 1–3 days); a negative window serves nothing
	// stale, and so does any window in front of a resolver whose profile
	// does not serve stale (forwarder.ProfiledUpstream).
	StaleWindow time.Duration
	// ErrorTTL is the error-cache lifetime (RFC 2308 §7 caps it at 5
	// minutes); it is also the retry delay surfaced in EDE 13 EXTRA-TEXT.
	ErrorTTL time.Duration
	// Now is the serving clock (injectable for deterministic tests).
	Now func() time.Time
	// Peek, when set, is the cross-replica cache hook (cluster serving): the
	// flight leader consults it on a miss before recursing (staleOK false)
	// and again after a failed recursion (staleOK true). A hit is absorbed
	// into the local cache and served as if local, so one recursion per
	// question happens cluster-wide — singleflight stays global.
	Peek func(k PeekKey, staleOK bool) (*SharedEntry, bool)
}

// Fixed serving lifetimes.
const (
	// staleTTL is the TTL stamped on stale answers (RFC 8767 §5.2
	// recommends 30 seconds).
	staleTTL = 30
	// negativeTTL is the RFC 2308 negative-cache lifetime used when the
	// authority section carries no SOA to derive one from.
	negativeTTL = 60 * time.Second
	// maxTTL caps how long any answer is cached.
	maxTTL = 6 * time.Hour
)

// WithDefaults fills unset fields with the values New serves with. It is
// idempotent, so a filled config (the one a cluster replicates) fills to
// itself.
func (c Config) WithDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 64
	}
	if c.Capacity <= 0 {
		c.Capacity = 1 << 16
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 512
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 5 * time.Second
	}
	if c.StaleWindow == 0 {
		c.StaleWindow = 24 * time.Hour
	}
	if c.ErrorTTL <= 0 {
		c.ErrorTTL = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// serveMode says which path produced an answer; it drives EDE attachment.
type serveMode int

const (
	modeFresh serveMode = iota
	modeStale
	modeStaleNX
	modeCachedError
	modeFailure
	modeOverload
)

// served is the client-agnostic outcome of one cache/upstream round,
// shared across coalesced waiters. The entry is immutable.
type served struct {
	mode serveMode
	e    *entry
	// failed holds the EDEs of the failed recursion a stale answer rescues:
	// a stale answer still says why the authorities were unreachable, as it
	// does when a resolver serves stale itself (EDE 3 with 22).
	failed []dnswire.EDEOption
}

// Frontend is the caching serving layer: a netsim.Handler over any
// forwarder.Upstream (usually a resolver.Resolver via
// forwarder.ResolverUpstream). It owns the stack's client answers: every
// recursion asks with forwarder.Options.CallerCaches, so a resolver behind it
// keeps no answer of its own (it still keeps the zone cuts and keys). Its
// Cache (bounded by Config.Capacity) is the one copy.
type Frontend struct {
	upstream forwarder.Upstream
	cfg      Config
	cache    *Cache
	flights  flightGroup
	sem      chan struct{}
	metrics  Metrics
	// report holds what the upstream's profile attaches (Profile.Report) to
	// a stale answer, a stale NXDOMAIN and an error-cache hit, by mode.
	// countdown says a cached error's options carry the retry delay as
	// EXTRA-TEXT, as under a profile with ExtraText.
	report    [modeOverload + 1][]dnswire.EDEOption
	countdown bool
}

// New builds a frontend over up. It answers as up's profile would
// (forwarder.ProfiledUpstream), Cloudflare's when up names none.
func New(up forwarder.Upstream, cfg Config) *Frontend {
	cfg = cfg.WithDefaults()
	p := resolver.ProfileCloudflare()
	if pu, ok := up.(forwarder.ProfiledUpstream); ok {
		p = pu.Profile()
	}
	if !p.ServeStale {
		cfg.StaleWindow = -1
	}
	f := &Frontend{
		upstream: up,
		cfg:      cfg,
		cache:    NewCache(cfg.Shards, cfg.Capacity),
		sem:      make(chan struct{}, cfg.MaxInflight),
	}
	f.report[modeStale] = p.Report([]resolver.Condition{resolver.ConditionStaleServed}, nil)
	f.report[modeStaleNX] = p.Report([]resolver.Condition{resolver.ConditionStaleNXServed}, nil)
	f.report[modeCachedError] = p.Report([]resolver.Condition{resolver.ConditionCachedError}, nil)
	f.countdown = p.ExtraText && len(f.report[modeCachedError]) > 0
	f.cache.onEvict = func() { f.metrics.evictions.Add(1) }
	return f
}

// Metrics returns the live counter registry.
func (f *Frontend) Metrics() *Metrics { return &f.metrics }

// CacheLen reports the number of cached entries: one per question (name,
// type, CD), whatever DO bits its clients sent.
func (f *Frontend) CacheLen() int { return f.cache.Len() }

// FlushCache clears the cache (for tests and operator tooling).
func (f *Frontend) FlushCache() { f.cache.Flush() }

// HandleDNS implements netsim.Handler: answer from cache when possible,
// coalesce upstream recursions otherwise, degrade to stale or cached-error
// data when recursion fails, and shed load when over the in-flight bound.
func (f *Frontend) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	f.metrics.queries.Add(1)

	if q.Opcode != dnswire.OpcodeQuery {
		f.metrics.refused.Add(1)
		r := q.Reply()
		r.RCode = dnswire.RCodeNotImp
		return r, nil
	}
	if len(q.Question) != 1 {
		f.metrics.refused.Add(1)
		r := q.Reply()
		r.RCode = dnswire.RCodeFormErr
		return r, nil
	}

	k := key{name: q.Question[0].Name, qtype: q.Question[0].Type, cd: q.CheckingDisabled}
	now := f.cfg.Now()
	sp := telemetry.SpanFrom(ctx)

	if sv, ok := f.freshHit(sp, k, now); ok {
		if sv.mode == modeCachedError {
			f.metrics.cachedErrors.Add(1)
		}
		return f.reply(q, &sv, now), nil
	}

	// Miss (or stale entry needing a refresh attempt): coalesce so M
	// concurrent clients asking the same question, whatever their DO bits,
	// cost one recursion.
	sv, shared := f.flights.do(k, func() *served { return f.fetch(ctx, k) })
	if shared {
		f.metrics.coalesced.Add(1)
		if sp != nil {
			sp.Event("frontend: coalesced onto an in-flight recursion")
		}
	}
	switch sv.mode {
	case modeStale:
		f.metrics.staleServes.Add(1)
		if sp != nil {
			sp.Eventf("frontend: serving stale answer for %s %s (RFC 8767)", k.name, k.qtype)
		}
	case modeStaleNX:
		f.metrics.staleNXServes.Add(1)
		if sp != nil {
			sp.Eventf("frontend: serving stale NXDOMAIN for %s %s", k.name, k.qtype)
		}
	case modeCachedError:
		f.metrics.cachedErrors.Add(1)
		if sp != nil {
			sp.Eventf("frontend: serving cached error for %s %s", k.name, k.qtype)
		}
	}
	return f.reply(q, sv, now), nil
}

// freshHit serves k from a fresh cache entry, counting the hit, and
// reports whether the cache had one. It returns by value so a hit served on
// the spot allocates nothing.
func (f *Frontend) freshHit(sp *telemetry.Span, k key, now time.Time) (served, bool) {
	e, fresh, ok := f.cache.get(k, now, f.cfg.StaleWindow)
	if !ok || !fresh {
		return served{}, false
	}
	f.metrics.hits.Add(1)
	if e.isError {
		if sp != nil {
			sp.Eventf("frontend cache: fresh error-cache hit for %s %s (rcode %s)", k.name, k.qtype, e.rcode)
		}
		return served{mode: modeCachedError, e: e}, true
	}
	if sp != nil {
		sp.Eventf("frontend cache: fresh hit for %s %s (stored %s ago)", k.name, k.qtype, now.Sub(e.storedAt).Round(time.Second))
	}
	return served{mode: modeFresh, e: e}, true
}

// fetch is the flight leader's path: run one bounded upstream recursion and
// fold the outcome into the cache, degrading to stale or error-cache data
// on failure.
func (f *Frontend) fetch(ctx context.Context, k key) *served {
	// A client whose cache check missed just before the previous leader
	// stored the answer and closed its flight leads a new flight: the answer
	// is there now, so it is a hit, not a second recursion.
	if sv, ok := f.freshHit(telemetry.SpanFrom(ctx), k, f.cfg.Now()); ok {
		return &sv
	}
	// Cross-replica peek: before paying for a recursion (or an overload
	// shed), ask the cluster whether the owning replica already has a fresh
	// answer for this question.
	if f.cfg.Peek != nil {
		if sv := f.peekFresh(k); sv != nil {
			return sv
		}
	}
	// Overload shed: never queue behind MaxInflight running recursions.
	// Stale data still rescues the response when available — shedding is a
	// resolution failure like any other (RFC 8767 §4).
	select {
	case f.sem <- struct{}{}:
	default:
		f.metrics.overloads.Add(1)
		now := f.cfg.Now()
		if sv := f.staleFor(k, now); sv != nil {
			return sv
		}
		return &served{mode: modeOverload, e: &entry{
			rcode: dnswire.RCodeServFail,
			edes: []dnswire.EDEOption{{
				InfoCode:  uint16(ede.CodeNetworkError),
				ExtraText: fmt.Sprintf("resolver overloaded: %d recursions in flight", f.cfg.MaxInflight),
			}},
			storedAt: now,
		}}
	}
	defer func() { <-f.sem }()
	leave := f.metrics.enterInflight()
	defer leave()
	f.metrics.misses.Add(1)

	// The answer is this cache's to keep, so the upstream stores no copy.
	uctx, cancel := context.WithTimeout(ctx, f.cfg.QueryTimeout)
	resp, err := forwarder.Exchange(uctx, f.upstream, k.name, k.qtype,
		forwarder.Options{CheckingDisabled: k.cd, CallerCaches: true})
	hitDeadline := errors.Is(uctx.Err(), context.DeadlineExceeded)
	cancel()

	now := f.cfg.Now()
	if err == nil && resp != nil && resp.RCode != dnswire.RCodeServFail {
		return &served{mode: modeFresh, e: f.store(k, resp, now)}
	}

	// Recursion failed: timeout, transport error, or upstream SERVFAIL.
	f.metrics.upstreamFails.Add(1)
	if hitDeadline {
		f.metrics.deadlines.Add(1)
	}
	sv := f.staleFor(k, now)
	if sv == nil && f.cfg.Peek != nil {
		sv = f.peekStale(k, now)
	}
	if sv == nil {
		return &served{mode: modeFailure, e: f.storeError(k, resp, err, hitDeadline, now)}
	}
	if resp != nil && (sv.mode == modeStale || sv.mode == modeStaleNX) {
		sv.failed = resp.EDEs()
	}
	return sv
}

// staleFor returns a stale serving outcome for k when its expired non-error
// entry is still inside the stale window.
func (f *Frontend) staleFor(k key, now time.Time) *served {
	e, fresh, ok := f.cache.get(k, now, f.cfg.StaleWindow)
	if !ok || fresh || e.isError {
		return nil
	}
	if e.rcode == dnswire.RCodeNXDomain {
		return &served{mode: modeStaleNX, e: e}
	}
	return &served{mode: modeStale, e: e}
}

// store fills the cache from a successful upstream response and returns the
// entry. RR slices are copied so later client-side re-heading (or resolver
// cache internals) cannot corrupt the cached message.
func (f *Frontend) store(k key, resp *dnswire.Message, now time.Time) *entry {
	e := &entry{
		answer:    append([]dnswire.RR(nil), resp.Answer...),
		authority: append([]dnswire.RR(nil), resp.Authority...),
		rcode:     resp.RCode,
		secure:    resp.AuthenticData,
		edes:      append([]dnswire.EDEOption(nil), resp.EDEs()...),
		storedAt:  now,
	}
	e.expiresAt = now.Add(ttlFor(e))
	f.cache.put(k, e)
	return e
}

// ttlFor derives the cache lifetime: minimum answer TTL for positive
// responses, RFC 2308 SOA-minimum for negative ones.
func ttlFor(e *entry) time.Duration {
	if len(e.answer) > 0 {
		ttl := e.answer[0].TTL
		for _, rr := range e.answer[1:] {
			ttl = min(ttl, rr.TTL)
		}
		return lifetime(ttl)
	}
	// Negative response (NXDOMAIN or NODATA): TTL is min(SOA TTL, SOA
	// MINIMUM) per RFC 2308 §3/§5; without an SOA negativeTTL applies.
	for _, rr := range e.authority {
		if soa, ok := rr.Data.(dnswire.SOA); ok {
			return lifetime(min(rr.TTL, soa.Minimum))
		}
	}
	return negativeTTL
}

// lifetime is a record TTL as a cache lifetime: at least a second, at most
// maxTTL.
func lifetime(ttl uint32) time.Duration {
	return min(max(time.Duration(ttl)*time.Second, time.Second), maxTTL)
}

// storeError fills the error cache so repeated failures are answered
// locally, as a cached error, until ErrorTTL passes.
func (f *Frontend) storeError(k key, resp *dnswire.Message, err error, hitDeadline bool, now time.Time) *entry {
	e := &entry{
		rcode:    dnswire.RCodeServFail,
		isError:  true,
		storedAt: now,
	}
	switch {
	case resp != nil:
		// Upstream answered SERVFAIL: keep its diagnosis (the EDEs the
		// recursion attached) for re-emission on cache hits.
		e.edes = append([]dnswire.EDEOption(nil), resp.EDEs()...)
	case hitDeadline:
		e.edes = []dnswire.EDEOption{{
			InfoCode:  uint16(ede.CodeNetworkError),
			ExtraText: fmt.Sprintf("upstream recursion exceeded the %s query deadline", f.cfg.QueryTimeout),
		}}
	default:
		text := "upstream resolver unreachable"
		if err != nil {
			text = "upstream resolver unreachable: " + err.Error()
		}
		e.edes = []dnswire.EDEOption{{InfoCode: uint16(ede.CodeNetworkError), ExtraText: text}}
	}
	e.expiresAt = now.Add(f.cfg.ErrorTTL)
	f.cache.put(k, e)
	return e
}

// reply builds this client's response from a serving outcome: fresh copies
// of the RR slices (TTL-adjusted), EDEs re-emitted plus the mode's own ones,
// EDNS only when the client used EDNS, and RRSIGs and AD only when it set DO.
func (f *Frontend) reply(q *dnswire.Message, sv *served, now time.Time) *dnswire.Message {
	out := q.Reply()
	out.RecursionAvailable = true
	e := sv.e
	out.RCode = e.rcode
	do := q.DO()

	switch sv.mode {
	case modeFresh:
		age := uint32(now.Sub(e.storedAt) / time.Second)
		out.Answer = adjustTTL(e.answer, age, 0, do)
		out.Authority = adjustTTL(e.authority, age, 0, do)
		out.AuthenticData = e.secure && do
	case modeStale, modeStaleNX:
		// RFC 8767 §5.2: stale data goes out with a short fixed TTL so
		// downstream caches do not hold it long.
		out.Answer = adjustTTL(e.answer, 0, staleTTL, do)
		out.Authority = adjustTTL(e.authority, 0, staleTTL, do)
	}

	for _, o := range e.edes {
		f.addEDE(out, o.InfoCode, o.ExtraText)
	}
	for _, o := range sv.failed {
		if !slices.ContainsFunc(e.edes, func(have dnswire.EDEOption) bool { return have.InfoCode == o.InfoCode }) {
			f.addEDE(out, o.InfoCode, o.ExtraText)
		}
	}
	for _, o := range f.report[sv.mode] {
		if sv.mode == modeCachedError && f.countdown {
			// The paper's Cloudflare idiom: EXTRA-TEXT is the bare retry
			// delay in seconds ("114") until the error cache entry expires.
			o.ExtraText = strconv.FormatUint(uint64(retryAfter(e, now)), 10)
		}
		f.addEDE(out, o.InfoCode, o.ExtraText)
	}
	if sv.mode == modeFresh || sv.mode == modeCachedError {
		f.maybeCaptureWire(e, out, now)
	}
	return out
}

// addEDE attaches code to out when the client can receive it (EDNS present)
// and counts the emission.
func (f *Frontend) addEDE(out *dnswire.Message, code uint16, text string) {
	if out.OPT == nil {
		return
	}
	out.AddEDE(code, text)
	f.metrics.countEDE(code)
}

// adjustTTL copies rrs with TTLs decremented by age (floor 1) or pinned to
// fixed when nonzero, dropping DNSSEC signature records for non-DO clients.
func adjustTTL(rrs []dnswire.RR, age, fixed uint32, do bool) []dnswire.RR {
	if len(rrs) == 0 {
		return nil
	}
	out := make([]dnswire.RR, 0, len(rrs))
	for _, rr := range rrs {
		if !do && rr.Type() == dnswire.TypeRRSIG {
			continue
		}
		switch {
		case fixed != 0:
			rr.TTL = fixed
		case rr.TTL > age:
			rr.TTL -= age
		default:
			rr.TTL = 1
		}
		out = append(out, rr)
	}
	return out
}

var _ netsim.Handler = (*Frontend)(nil)
