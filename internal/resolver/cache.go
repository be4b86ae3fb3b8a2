package resolver

import (
	"net/netip"
	"slices"
	"sync"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/fnv1a"
)

// cacheKey addresses one cached question. The CD bit is part of the key: a
// checking-disabled client receives validation-failure answers a validating
// client must never see, so the two populations may not share entries.
type cacheKey struct {
	name  dnswire.Name
	qtype dnswire.Type
	cd    bool
}

// shard returns the answer-shard index for the key: FNV-1a over the name
// bytes mixed with the qtype, masked to the power-of-two shard count (the
// same scheme as internal/frontend's cache).
func (k cacheKey) shard() uint64 {
	h := (fnv1a.Sum64(k.name) ^ uint64(k.qtype)) * fnv1a.Prime64
	if k.cd {
		h = (h ^ 0xff) * fnv1a.Prime64
	}
	return h & (numShards - 1)
}

// cachedAnswer is a completed resolution stored for reuse, including failed
// ones (the error cache behind EDE 13). Only a resolver answering clients on
// its own stores them — a read-only scan and a resolver behind a frontend do
// not — and it keeps one per distinct question until maxEntries, so the entry
// is kept to 64 bytes: the expiry is Unix nanoseconds rather than a time.Time.
type cachedAnswer struct {
	answer     []dnswire.RR
	conditions []Condition
	expiresAt  int64
	rcode      dnswire.RCode
	secure     bool
}

// numShards is the answer-map shard count; a power of two so the hash can be
// masked. 64 shards keep 128 scan workers from convoying on one mutex.
const numShards = 64

// DefaultMaxEntries bounds each of the cache's three maps — answers, zone
// cuts, zone keys. It is deliberately generous — far above anything the
// testbed or wild-scan populations produce — so default-configured runs never
// evict. The answer map can approach it only on a standalone resolver
// (forwarder.New, the testbed): a scan and a frontend's recursions
// store no answers. The cut and key maps grow with the zones a serving
// resolver resolves under, fronted or not; only a scan (AnswerCacheReadOnly)
// keeps its own names' cuts and keys off them. A full cut map of unsigned
// zones behind shared nameserver sets is about 75 MB (72 bytes a cut); one
// whose every zone has its own nameservers, about 180 MB.
const DefaultMaxEntries = 1 << 20

// evictProbes is how many entries an over-full shard examines per insert.
// Expired entries among the probes are preferred victims; otherwise the
// probed entry closest to expiry goes. This approximate policy is O(1) per
// insert and needs no auxiliary bookkeeping on the hit path.
const evictProbes = 8

// staleWindow is how long past expiry an answer may still be served as stale
// data (RFC 8767 suggests 1–3 days).
const staleWindow = 24 * time.Hour

// errorTTL is how long a SERVFAIL outcome is cached (and answered with
// EDE 13 on a hit).
const errorTTL = 30 * time.Second

// perShard is each shard's slice of maxEntries, for both sharded maps.
func (c *Cache) perShard() int { return max(c.maxEntries/numShards, 1) }

// evictProbed removes at least one entry from a full shard map, whose lock
// the caller holds. It probes a handful of entries (map iteration order is
// effectively random), deleting any whose expiry is more than grace behind
// nowNs; if none is, it deletes the probed entry with the earliest expiry.
func evictProbed[K comparable, V any](m map[K]V, nowNs, grace int64, expiresAt func(V) int64) {
	var victim K
	var victimExpiry int64
	probed := 0
	evicted := false
	for k, e := range m {
		if exp := expiresAt(e); nowNs >= exp+grace {
			delete(m, k)
			evicted = true
		} else if probed == 0 || exp < victimExpiry {
			victim, victimExpiry = k, exp
		}
		probed++
		if probed >= evictProbes {
			break
		}
	}
	if !evicted && probed > 0 {
		delete(m, victim)
	}
}

// answerShard is one lock-striped slice of the answer map.
type answerShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*cachedAnswer
}

// Cache stores completed resolutions and validated zone keys. It implements
// the behaviours the paper's §4.2 items 11–13 rely on: serve-stale (EDE 3,
// 19) and cached errors (EDE 13).
//
// Answers are sharded by question hash with a mutex per shard; zone keys sit
// behind a read-write lock so the common case — every resolution re-checking
// the already-validated DNSKEY chain for root, TLD, and zone — is a shared
// read lock, not a serializing exclusive one.
type Cache struct {
	shards [numShards]answerShard

	// delegations is the infrastructure cache: zone cuts learned from
	// referrals, looked up deepest-match so a resolution starts at the
	// closest known enclosing cut instead of the root.
	delegations [numShards]delegationShard

	keyMu sync.RWMutex
	keys  map[dnswire.Name]*zoneKeys

	// verified remembers signatures this cache's resolver has already
	// verified; every validation goes through it.
	verified *dnssec.VerifyMemo

	// maxEntries caps each of the three maps — answers, zone cuts, zone keys
	// — at this many entries: DefaultMaxEntries, which only this package's
	// tests lower. When a map (for the sharded two, a shard's slice of the
	// cap) is full, inserts evict expired entries or, failing that, the
	// probed entry closest to expiry.
	maxEntries int
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

// cachedCut is one delegation (zone cut) in the Cache: its expiry and a
// pointer to its shared body, stored by value. With the zone name as its key
// and its share of the map, a cut costs about 72 bytes of live heap, against
// 196 when each cut was its own object graph (EXPERIMENTS E32).
type cachedCut struct {
	expiresAt int64 // Unix nanoseconds, as in cachedAnswer
	body      *cutBody
}

// maxDelegationTTL caps how long a learned cut may be reused, whatever the
// referral's RR TTLs claim (mirrors real-resolver infrastructure caps).
const maxDelegationTTL = 24 * time.Hour

// delegationShard is one lock-striped slice of the delegation map, with the
// table that interns its unsigned cuts' bodies.
type delegationShard struct {
	mu      sync.Mutex
	entries map[dnswire.Name]cachedCut
	// bodies holds the shard's unsigned cut bodies by the hash of what they
	// say. It is dropped when it reaches bodyTableLen; cuts keep their bodies.
	bodies map[uint64]*cutBody
}

// intern returns the shard's body that says what b says, filing a copy of b
// as that body when none does. A cut with a DS set gets a body of its own, so
// one zone's DS set is never served for another. The caller holds s.mu.
func (s *delegationShard) intern(b cutBody, limit int) *cutBody {
	if b.ds != nil {
		own := new(cutBody)
		*own = b
		return own
	}
	h := b.hash()
	if have := s.bodies[h]; have != nil && have.says(&b) {
		return have
	}
	if s.bodies == nil || len(s.bodies) >= limit {
		s.bodies = make(map[uint64]*cutBody)
	}
	filed := new(cutBody)
	*filed = b
	s.bodies[h] = filed
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

// bodyTableLen is how many bodies a shard's intern table holds before it is
// dropped: 1/128 of the shard's cuts, so a world where no two zones share a
// nameserver set pays little for a table that saves it nothing.
func (c *Cache) bodyTableLen() int { return max(c.perShard()/128, 8) }

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

// nameShard hashes a zone name onto a shard index (FNV-1a, same scheme as
// cacheKey.shard).
func nameShard(n dnswire.Name) uint64 {
	return fnv1a.Sum64(n) & (numShards - 1)
}

// NewCache creates an empty cache holding up to DefaultMaxEntries per map.
func NewCache() *Cache {
	c := &Cache{
		keys:       make(map[dnswire.Name]*zoneKeys),
		verified:   new(dnssec.VerifyMemo),
		maxEntries: DefaultMaxEntries,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*cachedAnswer)
	}
	for i := range c.delegations {
		c.delegations[i].entries = make(map[dnswire.Name]cachedCut)
	}
	return c
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
		s := &c.delegations[nameShard(n)]
		s.mu.Lock()
		e, ok := s.entries[n]
		if ok && nowNs < e.expiresAt {
			s.mu.Unlock()
			return n, e.body
		}
		if ok {
			delete(s.entries, n)
		}
		s.mu.Unlock()
	}
	return dnswire.Root, nil
}

// putDelegation stores a cut learned from a referral for ttl, evicting from
// the target shard if it is at capacity (a cut is dead the moment it
// expires). An unsigned cut shares the body of any cut in the shard that says
// the same thing.
func (c *Cache) putDelegation(zone dnswire.Name, b cutBody, now time.Time, ttl time.Duration) {
	nowNs := now.UnixNano()
	s := &c.delegations[nameShard(zone)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[zone]; !exists && len(s.entries) >= c.perShard() {
		evictProbed(s.entries, nowNs, 0, func(e cachedCut) int64 { return e.expiresAt })
	}
	s.entries[zone] = cachedCut{expiresAt: nowNs + int64(ttl), body: s.intern(b, c.bodyTableLen())}
}

// DelegationLen reports the number of cached zone cuts (for tests).
func (c *Cache) DelegationLen() int {
	n := 0
	for i := range c.delegations {
		s := &c.delegations[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// KeyLen reports the number of cached zone-key establishments, the third map
// maxEntries bounds.
func (c *Cache) KeyLen() int {
	c.keyMu.RLock()
	defer c.keyMu.RUnlock()
	return len(c.keys)
}

// getAnswer returns a cached answer. fresh is false when the entry is past
// its TTL but within the stale window.
func (c *Cache) getAnswer(key cacheKey, now time.Time) (entry *cachedAnswer, fresh bool, ok bool) {
	s := &c.shards[key.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.entries[key]
	if !found {
		return nil, false, false
	}
	nowNs := now.UnixNano()
	if nowNs < e.expiresAt {
		return e, true, true
	}
	if nowNs < e.expiresAt+int64(staleWindow) {
		return e, false, true
	}
	delete(s.entries, key)
	return nil, false, false
}

// putAnswer stores a resolution outcome at now with the given TTL, evicting
// from the target shard if it is at capacity (an answer is dead once it is
// past the stale window).
func (c *Cache) putAnswer(key cacheKey, e *cachedAnswer, now time.Time, ttl time.Duration) {
	nowNs := now.UnixNano()
	e.expiresAt = nowNs + int64(ttl)
	s := &c.shards[key.shard()]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[key]; !exists && len(s.entries) >= c.perShard() {
		evictProbed(s.entries, nowNs, int64(staleWindow), func(e *cachedAnswer) int64 { return e.expiresAt })
	}
	s.entries[key] = e
}

// getKeys returns the cached key establishment for zone. This is the
// validated-DNSKEY fast path: a hit costs one shared read lock, so repeated
// key establishment for the same zone neither re-verifies signatures nor
// serializes behind other resolutions.
func (c *Cache) getKeys(zone dnswire.Name, now time.Time) (*zoneKeys, bool) {
	c.keyMu.RLock()
	k, ok := c.keys[zone]
	c.keyMu.RUnlock()
	if !ok {
		return nil, false
	}
	if now.After(k.expiresAt) {
		// Expired: drop it under the write lock (re-checking, since another
		// goroutine may have refreshed the zone in between).
		c.keyMu.Lock()
		if cur, ok := c.keys[zone]; ok && now.After(cur.expiresAt) {
			delete(c.keys, zone)
		}
		c.keyMu.Unlock()
		return nil, false
	}
	return k, true
}

// putKeys stores the key establishment for zone, evicting at capacity like
// the other two maps: a serving resolver validates every signed zone its
// clients reach, and must not keep all of them forever.
func (c *Cache) putKeys(zone dnswire.Name, k *zoneKeys, now time.Time) {
	c.keyMu.Lock()
	defer c.keyMu.Unlock()
	if _, exists := c.keys[zone]; !exists && len(c.keys) >= c.maxEntries {
		evictProbed(c.keys, now.UnixNano(), 0, func(k *zoneKeys) int64 { return k.expiresAt.UnixNano() })
	}
	c.keys[zone] = k
}

// VerifyStats reports how many signature checks cost a verification and how
// many the verified-signature memo answered.
func (c *Cache) VerifyStats() dnssec.VerifyStats { return c.verified.Stats() }

// Len reports the number of cached answers (for tests and benchmarks).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Flush clears everything: answers, zone keys, delegations, and the memory
// of which signatures have verified.
func (c *Cache) Flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[cacheKey]*cachedAnswer)
		s.mu.Unlock()
	}
	for i := range c.delegations {
		s := &c.delegations[i]
		s.mu.Lock()
		s.entries = make(map[dnswire.Name]cachedCut)
		s.bodies = nil
		s.mu.Unlock()
	}
	c.keyMu.Lock()
	c.keys = make(map[dnswire.Name]*zoneKeys)
	c.keyMu.Unlock()
	c.verified.Reset()
}
