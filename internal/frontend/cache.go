package frontend

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/fnv1a"
)

// key addresses one cached message: the question tuple plus the CD bit,
// since a checking-disabled client receives answers a validating client
// must never be served. The DO bit is not part of it: the recursion behind
// an entry validates whatever the client asked, and reply renders the one
// message per client (RRSIGs and AD only for DO=1).
type key struct {
	name  dnswire.Name
	qtype dnswire.Type
	cd    bool
}

// shard hashes the key with FNV-1a and maps it onto one of n shards
// (n must be a power of two).
func (k key) shard(n int) int {
	h := (fnv1a.Sum64(k.name) ^ uint64(k.qtype)) * fnv1a.Prime64
	if k.cd {
		h = (h ^ 0xcd) * fnv1a.Prime64
	}
	return int(h & uint64(n-1))
}

// entry is one cached serving outcome. Entries are immutable once stored:
// readers copy the RR slice headers before decrementing TTLs, and the RR
// Data values are never mutated by any serving path.
type entry struct {
	answer    []dnswire.RR
	authority []dnswire.RR
	rcode     dnswire.RCode
	secure    bool
	// edes are the upstream's EDE options at fill time, re-emitted on hits.
	edes []dnswire.EDEOption
	// isError marks an error-cache entry (the EDE 13 source).
	isError   bool
	storedAt  time.Time
	expiresAt time.Time

	// wires holds the pre-packed response images for the wire fast path,
	// one per client class (wireIndex), captured lazily from the first
	// slow-path reply of each class. nil until captured; immutable once
	// published. See wire.go.
	wires [3]atomic.Pointer[wireVariant]
}

// lruItem is what the per-shard LRU list holds.
type lruItem struct {
	k key
	e *entry
}

// cacheShard is one lock domain: a map for lookup plus an LRU list for the
// capacity bound. Front of the list is most recently used.
type cacheShard struct {
	mu    sync.Mutex
	items map[key]*list.Element
	lru   *list.List
	limit int // this shard's slice of the capacity
}

// Cache is the sharded serving cache: lookups contend only within one
// FNV-selected shard, and total size is bounded with per-shard LRU eviction.
// The resolver's cache (internal/resolver/cache.go) shards the same way but
// evicts by probing for expired entries, not by recency.
type Cache struct {
	shards []cacheShard
	// onEvict, when set, observes capacity evictions (wired to Metrics).
	onEvict func()
}

// Shard sizing: a cache spreads over up to maxShards shards, and a shard
// gets at least minShardEntries entries, so a small cache is one LRU.
const (
	maxShards       = 64
	minShardEntries = 64
)

// NewCache builds a cache holding at most capacity entries (minimum 1) over
// the largest power-of-two shard count, at most maxShards, that gives every
// shard minShardEntries entries, or one shard when none does. The shards'
// slices sum to capacity exactly.
func NewCache(capacity int) *Cache {
	capacity = max(capacity, 1)
	n := 1
	for n < maxShards && n<<1 <= capacity/minShardEntries {
		n <<= 1
	}
	c := &Cache{shards: make([]cacheShard, n)}
	for i := range c.shards {
		c.shards[i].items = make(map[key]*list.Element)
		c.shards[i].lru = list.New()
		c.shards[i].limit = capacity / n
		if i < capacity%n {
			c.shards[i].limit++
		}
	}
	return c
}

// get returns the entry for k and whether it is fresh. Entries past the
// stale window are dropped. A fresh hit refreshes LRU position; a stale hit
// does not (stale entries should not outcompete live ones for capacity).
func (c *Cache) get(k key, now time.Time, staleWindow time.Duration) (e *entry, fresh bool, ok bool) {
	s := &c.shards[k.shard(len(c.shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, found := s.items[k]
	if !found {
		return nil, false, false
	}
	ent := el.Value.(*lruItem).e
	switch {
	case now.Before(ent.expiresAt):
		s.lru.MoveToFront(el)
		return ent, true, true
	case now.Before(ent.expiresAt.Add(staleWindow)):
		return ent, false, true
	default:
		s.lru.Remove(el)
		delete(s.items, k)
		return nil, false, false
	}
}

// put stores e under k, evicting the shard's least recently used entry when
// the per-shard capacity is exceeded.
func (c *Cache) put(k key, e *entry) {
	s := &c.shards[k.shard(len(c.shards))]
	s.mu.Lock()
	if el, found := s.items[k]; found {
		el.Value.(*lruItem).e = e
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[k] = s.lru.PushFront(&lruItem{k: k, e: e})
	var evicted bool
	if s.lru.Len() > s.limit {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.items, back.Value.(*lruItem).k)
		evicted = true
	}
	s.mu.Unlock()
	if evicted && c.onEvict != nil {
		c.onEvict()
	}
}

// Len reports the number of cached entries across all shards.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		total += len(c.shards[i].items)
		c.shards[i].mu.Unlock()
	}
	return total
}

// Flush clears every shard.
func (c *Cache) Flush() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.items = make(map[key]*list.Element)
		s.lru.Init()
		s.mu.Unlock()
	}
}
