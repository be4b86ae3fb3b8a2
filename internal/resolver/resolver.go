package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// Resolution bounds.
const (
	// maxSteps bounds referral chasing per resolution; exceeding it is the
	// "iteration limit exceeded" condition (§4.2 item 14).
	maxSteps = 24
	// maxCNAME bounds CNAME chain length.
	maxCNAME = 8
)

// Resolver is a validating iterative resolver with EDE reporting.
type Resolver struct {
	Net     *netsim.Network
	Roots   []netip.Addr
	Profile *Profile
	// TrustAnchor is the DS set for the root zone.
	TrustAnchor []dnswire.DS
	// Now is the validation clock (injectable for deterministic tests).
	Now func() time.Time
	// Transport tunes upstream timeouts, retry budget, backoff, and pacing.
	// Nil or zero-valued reproduces the historical single-shot behaviour.
	Transport *TransportConfig
	// DisableDelegationCache turns off the zone-cut (infrastructure) cache,
	// restoring the historical start-at-the-root behaviour. Used by the
	// query-amplification benchmarks and ablation tests.
	DisableDelegationCache bool
	// AnswerCacheReadOnly keeps answer-cache lookups (including serve-stale)
	// active but stops new answers from being stored. The §4 scan flips
	// this on after its warmup pass (scan.WarmScanner): scan names are unique
	// and never re-queried, so storing their answers would only grow the heap
	// with the population — while the warmed entries that serve-stale depends
	// on stay pinned (nothing is inserted, so nothing can evict them). This
	// is what keeps scan peak heap O(workers) at any population size. It
	// also covers the infrastructure below the question: the zone cut at or
	// under the client's qname and the DNSKEY verdict for that zone stay on
	// the resolution (its CNAME chases and sub-resolutions still use them)
	// and never enter Cache, which would otherwise hold one cut per scanned
	// domain. On a fresh resolver it models a zdns-style unique-name scan:
	// the answer cache stays empty and only the cuts and keys above the
	// scanned names — root and TLDs — warm up. QueryOptions.CallerCaches is
	// the per-resolution half of this for a frontend: no answer stored, but
	// cuts and keys shared, since a frontend's names do come back.
	AnswerCacheReadOnly bool

	Cache *Cache

	idCounter atomic.Uint32
	// QueryCount counts outgoing queries (for the §5 throughput analysis).
	QueryCount atomic.Uint64
	// ResolutionCount counts client Resolve calls; QueryCount over it is the
	// query amplification.
	ResolutionCount atomic.Uint64

	// srtt tracks per-server smoothed RTT for fastest-first selection. It
	// only populates once a server reports a non-zero RTT, so on a perfect
	// network server order is exactly the zone's NS order.
	srtt srttTable

	// stats are scrape-time counters published by RegisterMetrics; rttHist
	// stays nil (one atomic load per exchange) until a registry installs it.
	stats   resolverStats
	rttHist atomic.Pointer[telemetry.Histogram]
}

// New builds a resolver with the given vantage.
func New(net *netsim.Network, roots []netip.Addr, anchor []dnswire.DS, profile *Profile) *Resolver {
	return &Resolver{
		Net:         net,
		Roots:       roots,
		Profile:     profile,
		TrustAnchor: anchor,
		Now:         time.Now,
		Cache:       NewCache(),
	}
}

// Result is a completed client resolution.
type Result struct {
	// Msg is the client-facing response with RCODE, answer, AD bit, and the
	// profile's EDE options attached.
	Msg *dnswire.Message
	// Conditions are the raw derived conditions (profile-independent facts
	// plus support-dependent ones), for analysis.
	Conditions []Condition
	// Secure reports whether the whole chain validated.
	Secure bool
	// Details holds per-condition diagnostic text (EXTRA-TEXT source).
	Details map[Condition]string
	// Cancelled reports that the client's context ended before resolution
	// finished; the response is a SERVFAIL that was never cached, and scans
	// should count the target as skipped rather than failed.
	Cancelled bool
}

// Codes returns the EDE codes attached to the response.
func (r *Result) Codes() []uint16 { return r.Msg.EDECodes() }

// VerifiesPerResolution returns the average number of cryptographic
// signature verifications per client resolution since the resolver was
// created. A scan of unsigned domains under opt-out TLDs drives it toward 0:
// the proofs are shared and the memo has seen them.
func (r *Resolver) VerifiesPerResolution() float64 {
	res := r.ResolutionCount.Load()
	if res == 0 {
		return 0
	}
	return float64(r.Cache.VerifyStats().Verifies) / float64(res)
}

// resolution carries the working state of one client query.
type resolution struct {
	r         *Resolver
	ctx       context.Context
	conds     []Condition
	details   map[Condition]string
	steps     int
	cancelled bool
	cd        bool // client set Checking Disabled (RFC 4035 §3.2.2)
	attempts  int  // upstream attempts spent (counts against RetryBudget)
	// leaf holds the cuts and keys of the client's own name when the
	// resolver is AnswerCacheReadOnly. It is a value, so it stays on the
	// stack with the resolution: a sub-resolution starts from a copy and
	// hands it back, as it does steps.
	leaf leafState

	// span is this resolution's root span; cur is the innermost open span —
	// the attach point addCond reports conditions against. Both are nil when
	// the caller's context carries no tracer, and every use is guarded so
	// the disabled path stays allocation-free.
	span *telemetry.Span
	cur  *telemetry.Span
}

func (st *resolution) addCond(c Condition, detail string) {
	for _, have := range st.conds {
		if have == c {
			return
		}
	}
	st.conds = append(st.conds, c)
	// Every condition flows through here exactly once, so the trace records
	// the precise span — delegation step, key validation, transport attempt —
	// where each fact was established.
	if st.cur != nil {
		if detail != "" {
			st.cur.Eventf("condition %s — %s", c, detail)
		} else {
			st.cur.Eventf("condition %s", c)
		}
	}
	if detail != "" {
		if st.details == nil {
			st.details = make(map[Condition]string)
		}
		st.details[c] = detail
	}
}

// QueryOptions carries per-query client signals that alter resolution
// behaviour. The zero value is the historical default (validating, DO set).
type QueryOptions struct {
	// CheckingDisabled requests RFC 4035 §3.2.2 CD-bit semantics: the
	// resolver still walks and validates the chain — conditions are derived
	// and EDEs attached exactly as usual — but DNSSEC validation failures no
	// longer withhold the answer. Server-failure (lame) outcomes still
	// SERVFAIL: CD disables checking, not reachability.
	CheckingDisabled bool
	// CallerCaches says the caller keeps the outcome itself, as a frontend
	// does: the resolution stores no client answer — positive, negative or
	// error — in Cache. Answer-cache hits, cached errors and serve-stale from
	// entries already there still apply. The zone cuts, DNSKEY verdicts and
	// verified signatures it learns are stored as usual, so the caller's next
	// question under the same zone (another type, a www name, a refresh)
	// starts where this one ended.
	CallerCaches bool
}

// Resolve answers (qname, qtype) for a client with DO set. It never returns
// a Go error: all failures are encoded in the response message, as a real
// resolver would.
func (r *Resolver) Resolve(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) *Result {
	return r.ResolveWithOptions(ctx, qname, qtype, QueryOptions{})
}

// ResolveWithOptions is Resolve with per-query client options (the CD bit).
func (r *Resolver) ResolveWithOptions(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, opts QueryOptions) *Result {
	// The details map is allocated lazily by addCond: most resolutions —
	// every healthy domain in a wild scan — never record a detail string.
	st := &resolution{r: r, ctx: ctx, cd: opts.CheckingDisabled}
	if r.AnswerCacheReadOnly {
		st.leaf.qname = qname
	}
	readOnly := r.AnswerCacheReadOnly || opts.CallerCaches
	now := r.Now()
	r.ResolutionCount.Add(1)

	// A single context lookup decides whether this resolution is traced;
	// when the context carries no span (the scan and benchmark hot path),
	// st.span stays nil and every tracing site below is a predicted-false
	// branch with zero allocations.
	if parent := telemetry.SpanFrom(ctx); parent != nil {
		st.span = parent.Childf("resolve %s %s", qname, qtype)
		st.cur = st.span
		defer st.span.End()
	}

	key := cacheKey{qname, qtype, st.cd}
	if entry, fresh, ok := r.Cache.getAnswer(key, now); ok {
		if fresh {
			r.stats.answerHits.Add(1)
			if entry.rcode == dnswire.RCodeServFail {
				r.stats.cachedErrorServes.Add(1)
			}
			if st.span != nil {
				st.span.Eventf("answer cache: fresh hit (rcode %s, %d records, secure=%v)",
					entry.rcode, len(entry.answer), entry.secure)
			}
			return r.finishFromCache(st, qname, qtype, entry, nil)
		}
		// Expired: retry live, fall back to stale below.
		if st.span != nil {
			st.span.Event("answer cache: expired entry (will retry live, stale fallback armed)")
		}
	}
	r.stats.answerMisses.Add(1)
	if st.span != nil {
		st.span.Event("answer cache: miss")
	}

	answer, rcode, secure := st.resolve(qname, qtype, 0)

	if st.cancelled {
		// The client gave up: answer SERVFAIL but never let an aborted
		// attempt pollute the error cache or trigger serve-stale.
		return r.finish(st, qname, qtype, nil, dnswire.RCodeServFail, false)
	}

	class := worstClass(st.conds)
	// Under CD a validation failure is not a serving failure: the answer is
	// released to the client and cached (under the cd-keyed entry) like any
	// positive outcome.
	if class == ClassLame || (class == ClassBogus && !st.cd) {
		// Serve-stale: a failed resolution can fall back to expired cache
		// content when the profile supports RFC 8767. That is stale data: an
		// expired error entry is not, and the live failure stands.
		if r.Profile.ServeStale {
			if entry, fresh, ok := r.Cache.getAnswer(key, now); ok && !fresh && entry.rcode != dnswire.RCodeServFail {
				staleCond := ConditionStaleServed
				if entry.rcode == dnswire.RCodeNXDomain {
					staleCond = ConditionStaleNXServed
				}
				r.stats.staleServes.Add(1)
				if st.span != nil {
					st.span.Eventf("serve-stale: live resolution failed, serving expired entry (rcode %s)", entry.rcode)
				}
				return r.finishFromCache(st, qname, qtype, entry, []Condition{staleCond})
			}
		}
		// Error cache (EDE 13 on subsequent hits).
		if !readOnly {
			r.Cache.putAnswer(key, &cachedAnswer{
				rcode: dnswire.RCodeServFail, conditions: append([]Condition(nil), st.conds...),
			}, now, errorTTL)
		}
	} else if !readOnly && (len(answer) > 0 || rcode == dnswire.RCodeNXDomain) {
		ttl := answerTTL(answer)
		r.Cache.putAnswer(key, &cachedAnswer{
			answer: answer, rcode: rcode, secure: secure,
			conditions: append([]Condition(nil), st.conds...),
		}, now, ttl)
	}

	return r.finish(st, qname, qtype, answer, rcode, secure)
}

// finishFromCache synthesizes a response from a cache entry, tagging cached
// errors and stale data.
func (r *Resolver) finishFromCache(st *resolution, qname dnswire.Name, qtype dnswire.Type, e *cachedAnswer, extra []Condition) *Result {
	// Keep conditions observed during this (possibly failed) live attempt —
	// a stale answer still reports why the authorities were unreachable —
	// and merge in what was known when the entry was cached.
	for _, c := range e.conditions {
		st.addCond(c, "")
	}
	for _, c := range extra {
		st.addCond(c, "")
	}
	if e.rcode == dnswire.RCodeServFail && len(extra) == 0 {
		st.addCond(ConditionCachedError, "")
	}
	return r.finish(st, qname, qtype, e.answer, e.rcode, e.secure)
}

// response bundles everything a finished resolution hands back, so a warm
// cache hit costs a single allocation instead of one each for the message,
// question slice, OPT, and Result.
type response struct {
	msg      dnswire.Message
	opt      dnswire.OPT
	question [1]dnswire.Question
	result   Result
}

// finish builds the client response with the EDE options the profile
// reports for the resolution's conditions (Profile.Report).
func (r *Resolver) finish(st *resolution, qname dnswire.Name, qtype dnswire.Type, answer []dnswire.RR, rcode dnswire.RCode, secure bool) *Result {
	out := &response{}
	out.question[0] = dnswire.Question{Name: qname, Type: qtype, Class: dnswire.ClassIN}
	out.opt = dnswire.OPT{UDPSize: 1232, DO: true}
	out.msg = dnswire.Message{
		ID:                 uint16(r.idCounter.Add(1)),
		Response:           true,
		RecursionDesired:   true,
		RecursionAvailable: true,
		RCode:              rcode,
		Question:           out.question[:],
		OPT:                &out.opt,
	}
	msg := &out.msg
	msg.CheckingDisabled = st.cd
	class := worstClass(st.conds)
	if class == ClassLame || (class == ClassBogus && !st.cd) {
		msg.RCode = dnswire.RCodeServFail
	} else {
		msg.Answer = answer
		// A CD client's bogus answer is never authentic: class stays
		// ClassBogus, so the AD computation below yields false for it.
		msg.AuthenticData = secure && class == ClassOK || class == ClassAdvisory && secure
	}

	edes := r.Profile.Report(st.conds, st.details)
	for _, o := range edes {
		msg.AddEDE(o.InfoCode, o.ExtraText)
	}
	if msg.RCode == dnswire.RCodeServFail {
		r.stats.servfails.Add(1)
	}
	if st.span != nil {
		// Close the loop for the trace reader: name the condition (and the
		// span it was recorded under, earlier in the tree) that produced
		// each emitted EDE option.
		for _, o := range edes {
			code := ede.Code(o.InfoCode)
			for _, c := range st.conds {
				if slices.Contains(r.Profile.codes(c), code) {
					st.span.Eventf("EDE %d (%s) attached ← condition %s", o.InfoCode, code.Name(), c)
				}
			}
		}
		st.span.Eventf("response: rcode %s, %d answers, AD=%v, %d EDE options",
			msg.RCode, len(msg.Answer), msg.AuthenticData, len(edes))
	}
	out.result = Result{Msg: msg, Conditions: st.conds, Secure: secure, Details: st.details, Cancelled: st.cancelled}
	return &out.result
}

// worstClass picks the response-determining class across conditions: the
// most severe one, except that stale data rescues a lame resolution (if stale
// was served, the degraded class wins).
func worstClass(conds []Condition) Class {
	worst := ClassOK
	for _, c := range conds {
		if c == ConditionStaleServed || c == ConditionStaleNXServed {
			return ClassDegraded
		}
		worst = max(worst, ClassOf(c))
	}
	return worst
}

func answerTTL(rrs []dnswire.RR) time.Duration {
	ttl := uint32(300)
	for _, rr := range rrs {
		if rr.TTL < ttl {
			ttl = rr.TTL
		}
	}
	if ttl == 0 {
		ttl = 1
	}
	return time.Duration(ttl) * time.Second
}

// resolve runs the iterative loop. It returns the answer section records,
// the upstream RCODE, and whether the full chain validated. Failures are
// recorded as conditions on st.
func (st *resolution) resolve(qname dnswire.Name, qtype dnswire.Type, cnameDepth int) (answer []dnswire.RR, rcode dnswire.RCode, secure bool) {
	r := st.r
	zoneName := dnswire.Root
	servers := r.Roots
	dsForZone := r.TrustAnchor
	chainSecure := len(r.TrustAnchor) > 0

	// Start at the deepest cached zone cut instead of the root, replaying
	// the conditions the original root→cut walk recorded so the response is
	// indistinguishable from a cold resolution. condBase marks where this
	// invocation's conditions begin, so cuts cached below inherit exactly
	// the walk-so-far (replayed + newly observed) conditions.
	condBase := len(st.conds)
	var inherited []condRecord
	if !r.DisableDelegationCache {
		if cutZone, cut := st.closestCut(qname, r.Now()); cut != nil {
			zoneName, servers, dsForZone, chainSecure = cutZone, cut.servers, cut.dsSet(), cut.secure
			inherited = cut.conds
			r.stats.delegationHits.Add(1)
			if st.cur != nil {
				st.cur.Eventf("delegation cache: start at cached cut %s (%d servers, secure=%v, %d replayed conditions)",
					zoneName, len(servers), chainSecure, len(inherited))
			}
			for _, cr := range cut.conds {
				st.addCond(cr.cond, cr.detail)
			}
		} else {
			r.stats.delegationMisses.Add(1)
			if st.cur != nil {
				st.cur.Event("delegation cache: miss, starting at the root")
			}
		}
	}

	// Each zone visited in the walk gets its own child span; st.cur tracks
	// the open one so transport attempts and validation verdicts nest under
	// the zone they happened in. prevCur restores the caller's attach point
	// when the walk ends (CNAME chases and glue sub-resolutions recurse).
	prevCur := st.cur
	var zoneSpan *telemetry.Span
	if prevCur != nil {
		defer func() {
			zoneSpan.End()
			st.cur = prevCur
		}()
	}

	for {
		if prevCur != nil {
			zoneSpan.End()
			zoneSpan = prevCur.Childf("zone %s (%d servers, chain secure=%v)", zoneName, len(servers), chainSecure)
			st.cur = zoneSpan
		}
		st.steps++
		if st.steps > maxSteps {
			st.addCond(ConditionIterationLimit, "iteration limit exceeded")
			return nil, dnswire.RCodeServFail, false
		}
		if st.ctx.Err() != nil {
			// Client cancellation propagates mid-lookup: stop chasing
			// referrals the moment the parent context ends.
			st.cancelled = true
			st.addCond(ConditionCancelled, "")
			return nil, dnswire.RCodeServFail, false
		}

		resp, srvAddr, ok := st.queryServers(servers, qname, qtype, chainSecure && len(dsForZone) > 0)
		if !ok {
			return nil, dnswire.RCodeServFail, false
		}

		if child, isReferral := referralChild(resp, zoneName, qname); isReferral {
			childDS, childSecure := st.evaluateDelegation(resp, zoneName, dsForZone, chainSecure, child, servers)
			if st.abortOnBogus() {
				return nil, dnswire.RCodeServFail, false
			}
			next, cacheable, cutTTL := st.serversForReferral(resp, child, cnameDepth)
			if len(next) == 0 {
				// Nameserver names resolved to nothing usable: lame.
				st.addCond(ConditionUnreachableAllTimeout, "")
				return nil, dnswire.RCodeServFail, false
			}
			// A CD walk continues past bogus delegations; those cuts must
			// not seed the shared infrastructure cache, or a later
			// validating client would inherit a cut its own walk would have
			// rejected before caching.
			if cacheable && !r.DisableDelegationCache && !(st.cd && bogusAbort(st.conds)) {
				ttl := time.Duration(cutTTL) * time.Second
				if ttl > maxDelegationTTL {
					ttl = maxDelegationTTL
				}
				if ttl > 0 {
					st.storeCut(child, cutBody{
						servers: next, secure: childSecure,
						conds: walkConds(inherited, st.conds[condBase:], st.details),
					}, childDS, r.Now(), ttl)
				}
			}
			if st.cur != nil {
				st.cur.Eventf("referral %s → %s (%d servers, secure=%v, cacheable=%v)",
					zoneName, child, len(next), childSecure, cacheable)
			}
			zoneName, servers, dsForZone, chainSecure = child, next, childDS, childSecure
			continue
		}

		// Authoritative answer or negative from zoneName's servers.
		return st.handleAuthoritative(resp, srvAddr, zoneName, dsForZone, chainSecure, qname, qtype, cnameDepth)
	}
}

// bogusAbort reports whether a bogus-class condition has been recorded.
func bogusAbort(conds []Condition) bool {
	for _, c := range conds {
		if ClassOf(c) == ClassBogus {
			return true
		}
	}
	return false
}

// abortOnBogus reports whether the walk must stop on a recorded bogus
// condition: always for a validating client, never under CD — a
// checking-disabled client wants the data regardless (RFC 4035 §3.2.2), so
// the walk continues and the conditions ride along as EDE diagnostics.
func (st *resolution) abortOnBogus() bool {
	return !st.cd && bogusAbort(st.conds)
}

// referralChild decides whether resp is a referral out of zoneName and
// returns the child zone.
func referralChild(resp *dnswire.Message, zoneName, qname dnswire.Name) (dnswire.Name, bool) {
	if len(resp.Answer) > 0 || resp.RCode == dnswire.RCodeNXDomain {
		return "", false
	}
	for _, rr := range resp.Authority {
		if rr.Type() != dnswire.TypeNS {
			continue
		}
		child := rr.Name
		if child != zoneName && child.IsSubdomainOf(zoneName) && qname.IsSubdomainOf(child) {
			return child, true
		}
	}
	return "", false
}

// queryServers tries each server until one produces a usable response.
// When every server fails it records the dominant failure conditions and
// returns ok=false. expectSigned notes whether the zone being queried has a
// DS (so total failure also implies an unobtainable DNSKEY).
//
// Transport policy: servers are visited fastest-SRTT-first (original NS
// order until any RTT has been observed); each server gets the configured
// number of attempts with exponential backoff and deterministic jitter
// between them; the per-attempt timeout comes from the transport config and
// is the budget the network charges virtual latency against, while the parent
// context is checked before every attempt; a transport-level retry
// budget caps total attempts per resolution. Truncated responses are retried
// over the stream transport (RFC 7766 fallback). A response that fails the
// sanity check is retried on the same server — under datagram reordering the
// next read is the answer to this question.
func (st *resolution) queryServers(servers []netip.Addr, qname dnswire.Name, qtype dnswire.Type, expectSigned bool) (*dnswire.Message, netip.Addr, bool) {
	r := st.r
	tc := r.Transport
	var sawRefused, sawServfail, sawNotAuth, sawInvalid, sawMalformed bool
	var lastAddr netip.Addr
	var lastRCode dnswire.RCode
	var invalidAddr, malformedAddr netip.Addr

	retries := tc.retries()
	budget := tc.budget()
	timeout := tc.timeout()

	for _, addr := range r.srtt.order(servers) {
		var resp *dnswire.Message
		var err error
		sawTimeout := false
		for attempt := 0; attempt < retries; attempt++ {
			if budget > 0 && st.attempts >= budget {
				if st.cur != nil {
					st.cur.Eventf("@%s: retry budget exhausted after %d attempts", addr, st.attempts)
				}
				goto totalFailure
			}
			if attempt > 0 {
				r.stats.retries.Add(1)
				if st.cur != nil {
					st.cur.Eventf("@%s: retry %d (reason: %s)", addr, attempt, retryReason(err))
				}
			}
			if st.ctx.Err() != nil {
				st.cancelled = true
				st.addCond(ConditionCancelled, "")
				return nil, netip.Addr{}, false
			}
			if d := tc.backoffFor(addr, attempt); d > 0 {
				tc.sleep(st.ctx, d)
				if st.ctx.Err() != nil {
					st.cancelled = true
					st.addCond(ConditionCancelled, "")
					return nil, netip.Addr{}, false
				}
			}
			if tc != nil && tc.Admit != nil {
				// Campaign admission: block until the per-authority and
				// global token buckets release a slot for this attempt. The
				// only error Admit returns is the context's, so a blocked
				// shard being cancelled drains like any other cancellation.
				if err := tc.Admit(st.ctx, addr); err != nil {
					st.cancelled = true
					st.addCond(ConditionCancelled, "")
					return nil, netip.Addr{}, false
				}
			}
			q := dnswire.NewQuery(uint16(r.idCounter.Add(1)), qname, qtype)
			q.RecursionDesired = false
			r.QueryCount.Add(1)
			st.attempts++
			var rtt time.Duration
			wantID := q.ID
			resp, rtt, err = r.Net.Attempt(st.ctx, addr, q, timeout, false)
			if err == nil && resp.Truncated {
				// TC bit: the datagram answer did not fit (or the path
				// truncates); re-ask over the stream transport.
				r.stats.tcpFallbacks.Add(1)
				if st.cur != nil {
					st.cur.Eventf("@%s: truncated response, falling back to stream transport", addr)
				}
				q2 := dnswire.NewQuery(uint16(r.idCounter.Add(1)), qname, qtype)
				q2.RecursionDesired = false
				r.QueryCount.Add(1)
				var rtt2 time.Duration
				var resp2 *dnswire.Message
				resp2, rtt2, err = r.Net.Attempt(st.ctx, addr, q2, timeout, true)
				if err == nil {
					resp = resp2
					rtt += rtt2
					wantID = q2.ID
				}
			}
			if err == nil {
				r.srtt.observe(addr, rtt)
				r.observeRTT(rtt.Seconds())
				// Sanity: the transaction ID and echoed question must
				// match (a reordered datagram answers someone else's
				// query); EDNS must be mirrored. A mismatch is retried on
				// this server — under reordering the next datagram carries
				// our answer.
				if resp.ID != wantID || len(resp.Question) == 0 ||
					resp.Question[0].Name != qname || resp.Question[0].Type != qtype || resp.OPT == nil {
					sawInvalid = true
					invalidAddr = addr
					r.stats.invalidResponses.Add(1)
					if st.cur != nil {
						st.cur.Eventf("query %s %s @%s → invalid response (mismatched question or missing OPT) rtt=%s", qname, qtype, addr, rtt)
					}
					err = errInvalidResponse
					continue
				}
				if st.cur != nil {
					st.cur.Eventf("query %s %s @%s → %s (%d answers, %d authority, %d additional) rtt=%s",
						qname, qtype, addr, resp.RCode, len(resp.Answer), len(resp.Authority), len(resp.Additional), rtt)
				}
				break
			}
			if errors.Is(err, netsim.ErrMalformed) {
				// The path is delivering garbage — an observable network
				// error, not silence.
				sawMalformed = true
				malformedAddr = addr
				r.stats.malformed.Add(1)
				if st.cur != nil {
					st.cur.Eventf("query %s %s @%s → malformed datagram", qname, qtype, addr)
				}
				continue
			}
			sawTimeout = true
			r.stats.timeouts.Add(1)
			if st.cur != nil {
				st.cur.Eventf("query %s %s @%s → timeout (%s)", qname, qtype, addr, timeout)
			}
		}
		if sawTimeout {
			r.srtt.penalize(addr)
		}
		if err != nil {
			continue // every attempt to this server failed
		}
		switch resp.RCode {
		case dnswire.RCodeRefused:
			sawRefused = true
			lastAddr, lastRCode = addr, resp.RCode
		case dnswire.RCodeServFail:
			sawServfail = true
			r.stats.upstreamServfails.Add(1)
			lastAddr, lastRCode = addr, resp.RCode
		case dnswire.RCodeNotAuth:
			sawNotAuth = true
			lastAddr, lastRCode = addr, resp.RCode
		case dnswire.RCodeFormErr, dnswire.RCodeNotImp:
			sawInvalid = true
			invalidAddr = addr
		default:
			if sawRefused || sawServfail {
				// A sibling nameserver failed before this one answered:
				// resolution proceeds, with a Network Error advisory
				// (§4.2 item 2's EDE-23-without-22 cases).
				st.addCond(ConditionUpstreamError,
					fmt.Sprintf("%s:53 rcode=%s for %s %s", lastAddr, lastRCode, qname, qtype))
			}
			return resp, addr, true
		}
	}

totalFailure:
	// Total failure: derive the dominant reachability condition, with the
	// Cloudflare-style nameserver detail for EXTRA-TEXT.
	switch {
	case sawRefused:
		st.addCond(ConditionUnreachableRefused,
			fmt.Sprintf("%s:53 rcode=%s for %s %s", lastAddr, lastRCode, qname, qtype))
	case sawServfail:
		st.addCond(ConditionUnreachableServfail,
			fmt.Sprintf("%s:53 rcode=%s for %s %s", lastAddr, lastRCode, qname, qtype))
	case sawNotAuth:
		st.addCond(ConditionNotAuthAll, "")
	case sawInvalid:
		st.addCond(ConditionInvalidData,
			fmt.Sprintf("Mismatched question from the authoritative server %s", invalidAddr))
	case sawMalformed:
		// Garbled datagrams are a network signal, not silence: EDE 23
		// (Network Error) territory rather than EDE 22 (No Reachable
		// Authority).
		st.addCond(ConditionNetworkError,
			fmt.Sprintf("Malformed responses from the authoritative server %s", malformedAddr))
	default:
		st.addCond(ConditionUnreachableAllTimeout, "")
	}
	if expectSigned && !sawInvalid && !sawMalformed {
		st.addCond(ConditionDNSKEYUnobtainable, "")
	}
	return nil, netip.Addr{}, false
}

// errInvalidResponse marks a received-but-unusable response inside the
// attempt loop so the same server is retried.
var errInvalidResponse = errors.New("resolver: invalid upstream response")

// retryReason names the previous attempt's failure for the trace. Only
// called on the traced path.
func retryReason(err error) string {
	switch {
	case err == nil:
		return "unknown"
	case errors.Is(err, errInvalidResponse):
		return "invalid response"
	case errors.Is(err, netsim.ErrMalformed):
		return "malformed datagram"
	}
	return "timeout"
}

// serversForReferral extracts glue addresses for the child's nameservers,
// resolving out-of-bailiwick hosts as needed.
//
// cacheable reports whether the address set may enter the delegation cache:
// true only when every address came from Additional-section glue whose owner
// is one of the child's NS hosts and sits inside the child zone (the classic
// bailiwick rule). Addresses stuffed under foreign owners, or obtained via
// sub-resolution, are still used for this resolution — behaviour is
// unchanged — but never cached, so an authority cannot seed cuts for zones
// it does not serve. ttl is the minimum TTL across the NS RRset and the glue
// used, bounding how long a cached cut may live.
func (st *resolution) serversForReferral(resp *dnswire.Message, child dnswire.Name, depth int) (addrs []netip.Addr, cacheable bool, ttl uint32) {
	var hosts []dnswire.Name
	ttl = ^uint32(0)
	for _, rr := range resp.Authority {
		if ns, ok := rr.Data.(dnswire.NS); ok && rr.Name == child {
			hosts = append(hosts, ns.Host)
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
		}
	}
	inBailiwick := func(owner dnswire.Name) bool {
		if !owner.IsSubdomainOf(child) {
			return false
		}
		for _, h := range hosts {
			if h == owner {
				return true
			}
		}
		return false
	}
	cacheable = true
	glued := make(map[dnswire.Name]bool)
	for _, rr := range resp.Additional {
		switch d := rr.Data.(type) {
		case dnswire.A:
			addrs = append(addrs, d.Addr)
			glued[rr.Name] = true
		case dnswire.AAAA:
			addrs = append(addrs, d.Addr)
			glued[rr.Name] = true
		default:
			continue
		}
		if !inBailiwick(rr.Name) {
			cacheable = false
		} else if rr.TTL < ttl {
			ttl = rr.TTL
		}
	}
	if len(addrs) > 0 {
		return addrs, cacheable && len(hosts) > 0, ttl
	}
	// Out-of-bailiwick nameservers: resolve their addresses with a bounded
	// sub-resolution that shares the step budget. Never cacheable: the
	// addresses were not attested by the delegating parent.
	if depth >= maxCNAME {
		return nil, false, 0
	}
	for _, host := range hosts {
		if glued[host] {
			continue
		}
		sub := &resolution{r: st.r, ctx: st.ctx, steps: st.steps, leaf: st.leaf}
		if st.cur != nil {
			sub.span = st.cur.Childf("sub-resolve %s A (out-of-bailiwick nameserver for %s)", host, child)
			sub.cur = sub.span
		}
		ans, _, _ := sub.resolve(host, dnswire.TypeA, depth+1)
		sub.span.End()
		st.steps, st.leaf = sub.steps, sub.leaf
		for _, rr := range ans {
			if a, ok := rr.Data.(dnswire.A); ok {
				addrs = append(addrs, a.Addr)
			}
		}
		if len(addrs) >= 2 {
			break
		}
	}
	return addrs, false, 0
}
