package resolver

import (
	"net/netip"
	"slices"
	"sync"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/fnv1a"
	"github.com/extended-dns-errors/edelab/internal/ttlmap"
)

// cacheKey addresses one cached question. The CD bit is part of the key: a
// checking-disabled client receives validation-failure answers a validating
// client must never see, so the two populations may not share entries.
type cacheKey struct {
	name  dnswire.Name
	qtype dnswire.Type
	cd    bool
}

// hash picks the key's answer shard: FNV-1a over the name bytes mixed with
// the qtype (the same scheme as internal/frontend's cache key).
func (k cacheKey) hash() uint64 {
	h := (fnv1a.Sum64(k.name) ^ uint64(k.qtype)) * fnv1a.Prime64
	if k.cd {
		h = (h ^ 0xff) * fnv1a.Prime64
	}
	return h
}

// cachedAnswer is a completed resolution stored for reuse, including failed
// ones (the error cache behind EDE 13). Only a resolver answering clients on
// its own stores them — a read-only scan and a resolver behind a frontend do
// not — and it keeps one per distinct question up to DefaultMaxEntries, so
// the entry is kept to 64 bytes; its expiry is the answer map's.
type cachedAnswer struct {
	answer     []dnswire.RR
	conditions []Condition
	rcode      dnswire.RCode
	secure     bool
}

// DefaultMaxEntries bounds each of the cache's three maps — answers, zone
// cuts, zone keys. It is deliberately generous — far above anything the
// testbed or wild-scan populations produce — so default-configured runs never
// evict. The answer map can approach it only on a standalone resolver
// (forwarder.New, the testbed): a scan and a frontend's recursions
// store no answers. The cut and key maps grow with the zones a serving
// resolver resolves under, fronted or not; only a scan (AnswerCacheReadOnly)
// keeps its own names' cuts and keys off them. A full cut map of unsigned
// zones behind shared nameserver sets is about 84 MB (80 bytes a cut); one
// whose every zone has its own nameservers, about 171 MB.
const DefaultMaxEntries = 1 << 20

// staleWindow is how long past expiry an answer may still be served as stale
// data (RFC 8767 suggests 1–3 days).
const staleWindow = 24 * time.Hour

// errorTTL is how long a SERVFAIL outcome is cached (and answered with
// EDE 13 on a hit).
const errorTTL = 30 * time.Second

// Cache stores completed resolutions and validated zone keys. It implements
// the behaviours the paper's §4.2 items 11–13 rely on: serve-stale (EDE 3,
// 19) and cached errors (EDE 13).
//
// Its three maps — answers, zone cuts, zone keys — are ttlmap instances, each
// capped at DefaultMaxEntries (which only this package's tests lower) and
// sharded by key hash with a mutex per shard; a full shard evicts by
// ttlmap's one rule. Answers are served stale for staleWindow past their
// expiry; a cut or a key is dead once it expires.
type Cache struct {
	answers *ttlmap.Map[cacheKey, *cachedAnswer]

	// cuts is the infrastructure cache: zone cuts learned from referrals,
	// looked up deepest-match so a resolution starts at the closest known
	// enclosing cut instead of the root. With the zone name as its key, its
	// expiry and a pointer to its shared body, a cut costs about 80 bytes of
	// live heap, against 196 when each cut was its own object graph
	// (EXPERIMENTS E32).
	cuts *ttlmap.Map[dnswire.Name, *cutBody]

	// bodies interns unsigned cut bodies by the hash of what they say, so
	// cuts behind one nameserver set share one body. It is dropped when it
	// reaches bodyLimit entries; cuts keep their bodies.
	bodyMu    sync.Mutex
	bodies    map[uint64]*cutBody
	bodyLimit int

	keys *ttlmap.Map[dnswire.Name, *zoneKeys]

	// verified remembers signatures this cache's resolver has already
	// verified; every validation goes through it.
	verified *dnssec.VerifyMemo
}

// zoneKeys is a validated key-establishment outcome for one zone.
type zoneKeys struct {
	keys       []dnswire.DNSKEY
	secure     bool
	conditions []Condition
	detail     string
	expiresAt  time.Time
}

// condRecord is one condition observed on the root→cut walk, with the
// diagnostic detail that backs its EXTRA-TEXT. Cached cuts replay these so a
// resolution starting mid-chain reports exactly what a full walk would have.
type condRecord struct {
	cond   Condition
	detail string
}

// cutBody is what a referral taught about a zone cut: the glue addresses of
// the child's in-bailiwick nameservers, the walk conditions accumulated from
// the root to here, whether the chain of trust was intact down to the cut,
// and the child's validated DS set when it has one. It is immutable once
// filed, so the Cache gives unsigned cuts that say the same thing one body:
// the paper's §4.2 finds thousands of zones behind each nameserver set.
//
// Only referrals whose every address came from in-bailiwick glue (owner is
// one of the child's NS hosts and a subdomain of the child zone) are cached:
// an authority can then only ever poison entries for names it legitimately
// serves. Bogus delegations abort resolution before the cut is stored, so
// validation failures are always re-derived live.
type cutBody struct {
	servers []netip.Addr
	conds   []condRecord
	// ds is nil on an unsigned delegation. A pointer, not a slice, keeps the
	// body in the 64-byte size class; signed delegations are rare.
	ds     *[]dnswire.DS
	secure bool
}

// dsSet returns the cut's validated DS set, nil on an unsigned delegation.
func (b *cutBody) dsSet() []dnswire.DS {
	if b.ds == nil {
		return nil
	}
	return *b.ds
}

// maxDelegationTTL caps how long a learned cut may be reused, whatever the
// referral's RR TTLs claim (mirrors real-resolver infrastructure caps).
const maxDelegationTTL = 24 * time.Hour

// intern returns the interned body that says what b says, filing a copy of
// b as that body when none does. A cut with a DS set gets a body of its own,
// so one zone's DS set is never served for another.
func (c *Cache) intern(b cutBody) *cutBody {
	if b.ds != nil {
		own := new(cutBody)
		*own = b
		return own
	}
	h := b.hash()
	c.bodyMu.Lock()
	defer c.bodyMu.Unlock()
	if have := c.bodies[h]; have != nil && have.says(&b) {
		return have
	}
	if c.bodies == nil || len(c.bodies) >= c.bodyLimit {
		c.bodies = make(map[uint64]*cutBody)
	}
	filed := new(cutBody)
	*filed = b
	c.bodies[h] = filed
	return filed
}

// hash is FNV-1a over what an unsigned body says: its servers in order, its
// conditions with their details, and secure.
func (b *cutBody) hash() uint64 {
	h := fnv1a.Sum64("")
	for _, a := range b.servers {
		ip := a.As16()
		for _, c := range ip {
			h = (h ^ uint64(c)) * fnv1a.Prime64
		}
		h = (h ^ uint64(a.BitLen())) * fnv1a.Prime64
	}
	for _, cr := range b.conds {
		h = (h ^ uint64(cr.cond)) * fnv1a.Prime64
		h = (h ^ fnv1a.Sum64(cr.detail)) * fnv1a.Prime64
	}
	if b.secure {
		h = (h ^ 1) * fnv1a.Prime64
	}
	return h
}

// says reports whether two unsigned bodies hold the same content.
func (b *cutBody) says(o *cutBody) bool {
	return b.secure == o.secure && slices.Equal(b.servers, o.servers) && slices.Equal(b.conds, o.conds)
}

// leafState is where a resolution of a unique-name scan (AnswerCacheReadOnly)
// keeps its own name's infrastructure: the zone cuts at or below the client's
// qname and the DNSKEY verdicts for those zones. In the shared Cache they
// would be one cut per scanned domain that no later resolution reads, since
// no name is asked twice. A frontend's recursions (QueryOptions.CallerCaches)
// do not use it: a client that asks A asks AAAA next, under the same cut.
// Only the resolution that learned them reads them —
// its CNAME chases, and its out-of-bailiwick nameserver sub-resolutions,
// which work on a copy and hand it back — so it sends exactly the queries a
// shared entry would have let it send. Cuts above the qname (the TLDs) still
// go to the Cache.
//
// Like the resolution it belongs to, it lives on the stack; the one record a
// scanned name's cut takes costs the allocation a shared cut would.
type leafState struct {
	qname dnswire.Name // empty on a caching resolver: it owns nothing
	cuts  []zoneEntry[leafCut]
	keys  []zoneEntry[*zoneKeys]
}

// leafCut is a cut kept on a resolution: an expiry and a body, as in the
// Cache, but with the body inline and never interned, since nothing else
// reads it.
type leafCut struct {
	expiresAt int64
	body      cutBody
}

// zoneEntry is one leafState record: a value learned for a zone.
type zoneEntry[V any] struct {
	zone dnswire.Name
	v    V
}

// owns reports whether zone is at or below the client's qname, and so stays
// on the resolution.
func (l *leafState) owns(zone dnswire.Name) bool {
	return l.qname != "" && zone.IsSubdomainOf(l.qname)
}

// cut returns the deepest fresh cut of the resolution's own that encloses
// qname, or (root, nil).
func (l *leafState) cut(qname dnswire.Name, nowNs int64) (dnswire.Name, *cutBody) {
	zone, cut := dnswire.Root, (*cutBody)(nil)
	for i := range l.cuts {
		e := &l.cuts[i]
		if nowNs < e.v.expiresAt && len(e.zone) > len(zone) && qname.IsSubdomainOf(e.zone) {
			zone, cut = e.zone, &e.v.body
		}
	}
	return zone, cut
}

// NewCache creates an empty cache holding up to DefaultMaxEntries per map.
func NewCache() *Cache { return newCache(DefaultMaxEntries) }

// newCache creates an empty cache holding up to maxEntries per map. The body
// intern table holds 1/128 of that, so a world where no two zones share a
// nameserver set pays little for a table that saves it nothing.
func newCache(maxEntries int) *Cache {
	return &Cache{
		answers:   ttlmap.New[cacheKey, *cachedAnswer](maxEntries, staleWindow, cacheKey.hash),
		cuts:      ttlmap.New[dnswire.Name, *cutBody](maxEntries, 0, fnv1a.Sum64[dnswire.Name]),
		bodyLimit: max(maxEntries/128, 8),
		keys:      ttlmap.New[dnswire.Name, *zoneKeys](maxEntries, 0, fnv1a.Sum64[dnswire.Name]),
		verified:  dnssec.NewVerifyMemo(),
	}
}

// closestCut returns the body of the deepest fresh zone cut enclosing qname:
// the shared Cache's, or one of the resolution's own leaf cuts when that is
// deeper.
func (st *resolution) closestCut(qname dnswire.Name, now time.Time) (dnswire.Name, *cutBody) {
	zone, cut := st.r.Cache.getDelegation(qname, now)
	if lz, lc := st.leaf.cut(qname, now.UnixNano()); lc != nil && len(lz) > len(zone) {
		return lz, lc
	}
	return zone, cut
}

// storeCut files a cut learned from a referral for ttl, with the child's DS
// set if it has one: on the resolution when the zone is its own leaf, else in
// the shared Cache.
func (st *resolution) storeCut(zone dnswire.Name, b cutBody, ds []dnswire.DS, now time.Time, ttl time.Duration) {
	if len(ds) > 0 {
		b.ds = new([]dnswire.DS) // only here: &ds would move ds to the heap on every call
		*b.ds = ds
	}
	if !st.leaf.owns(zone) {
		st.r.Cache.putDelegation(zone, b, now, ttl)
		return
	}
	st.leaf.cuts = append(st.leaf.cuts, zoneEntry[leafCut]{zone, leafCut{now.UnixNano() + int64(ttl), b}})
}

// cachedKeys returns the key establishment known for zone: the resolution's
// own for a leaf zone, else (or failing that) the shared Cache's.
func (st *resolution) cachedKeys(zone dnswire.Name, now time.Time) (*zoneKeys, bool) {
	if st.leaf.owns(zone) {
		for _, e := range st.leaf.keys {
			if e.zone == zone && !now.After(e.v.expiresAt) {
				return e.v, true
			}
		}
	}
	return st.r.Cache.getKeys(zone, now)
}

// storeKeys files a key establishment where storeCut would file its zone's
// cut.
func (st *resolution) storeKeys(zone dnswire.Name, k *zoneKeys, now time.Time) {
	if st.leaf.owns(zone) {
		st.leaf.keys = append(st.leaf.keys, zoneEntry[*zoneKeys]{zone, k})
		return
	}
	st.r.Cache.putKeys(zone, k, now)
}

// getDelegation returns the body of the deepest cached zone cut enclosing
// qname (which may be qname itself), or (root, nil) when no fresh cut is
// known. Expired entries are dropped on the way down, so lookup naturally
// falls back to the parent cut — and ultimately the root — as TTLs run out.
func (c *Cache) getDelegation(qname dnswire.Name, now time.Time) (dnswire.Name, *cutBody) {
	nowNs := now.UnixNano()
	for n := qname; !n.IsRoot(); n = n.Parent() {
		if body, fresh, _ := c.cuts.Get(n, nowNs); fresh {
			return n, body
		}
	}
	return dnswire.Root, nil
}

// putDelegation stores a cut learned from a referral for ttl. An unsigned
// cut shares the body of any cut that says the same thing.
func (c *Cache) putDelegation(zone dnswire.Name, b cutBody, now time.Time, ttl time.Duration) {
	nowNs := now.UnixNano()
	c.cuts.Put(zone, c.intern(b), nowNs+int64(ttl), nowNs)
}

// DelegationLen reports the number of cached zone cuts (for tests).
func (c *Cache) DelegationLen() int { return c.cuts.Len() }

// KeyLen reports the number of cached zone-key establishments, the third map
// DefaultMaxEntries bounds.
func (c *Cache) KeyLen() int { return c.keys.Len() }

// getAnswer returns a cached answer. fresh is false when the entry is past
// its TTL but within the stale window.
func (c *Cache) getAnswer(key cacheKey, now time.Time) (entry *cachedAnswer, fresh bool, ok bool) {
	return c.answers.Get(key, now.UnixNano())
}

// putAnswer stores a resolution outcome at now with the given TTL.
func (c *Cache) putAnswer(key cacheKey, e *cachedAnswer, now time.Time, ttl time.Duration) {
	nowNs := now.UnixNano()
	c.answers.Put(key, e, nowNs+int64(ttl), nowNs)
}

// getKeys returns the cached key establishment for zone: the validated-DNSKEY
// fast path, so repeated key establishment for the same zone does not
// re-verify signatures.
func (c *Cache) getKeys(zone dnswire.Name, now time.Time) (*zoneKeys, bool) {
	k, fresh, _ := c.keys.Get(zone, now.UnixNano())
	return k, fresh
}

// putKeys stores the key establishment for zone, bounded like the other two
// maps: a serving resolver validates every signed zone its clients reach,
// and must not keep all of them forever. A key establishment is good through
// its expiry instant, hence the nanosecond past it.
func (c *Cache) putKeys(zone dnswire.Name, k *zoneKeys, now time.Time) {
	c.keys.Put(zone, k, k.expiresAt.UnixNano()+1, now.UnixNano())
}

// VerifyStats reports how many signature checks cost a verification and how
// many the verified-signature memo answered.
func (c *Cache) VerifyStats() dnssec.VerifyStats { return c.verified.Stats() }

// Len reports the number of cached answers (for tests and benchmarks).
func (c *Cache) Len() int { return c.answers.Len() }

// Flush clears everything: answers, zone keys, delegations, and the memory
// of which signatures have verified.
func (c *Cache) Flush() {
	c.answers.Flush()
	c.cuts.Flush()
	c.bodyMu.Lock()
	c.bodies = nil
	c.bodyMu.Unlock()
	c.keys.Flush()
	c.verified.Reset()
}
