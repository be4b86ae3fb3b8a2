// Package ttlmap is the repository's one expiring cache map. The frontend's
// message cache, the resolver's answer, zone-cut and zone-key maps and
// dnssec's verified-signature memo are instances of it: a sharded map with a
// capacity bound in which every entry lives through one lifetime — fresh
// until its expiry, stale for a grace period after it, then dead — and an
// over-full shard makes room by one eviction rule.
package ttlmap

import (
	"sync"
	"time"
)

// Shard sizing: a map spreads over up to maxShards shards, and a shard gets
// at least minShardEntries entries, so a small map is one shard.
const (
	maxShards       = 64
	minShardEntries = 64
)

// probes is how many entries an over-full shard examines per insert. Map
// iteration starts at a random slot, so the probes are a sample of the shard
// (consecutive slots, not a uniform draw); the rule is O(1) per insert and
// needs no list to maintain.
const probes = 8

// Map maps K to V under a total capacity. Lookups contend only within one
// shard, chosen by the hash the map was built with.
type Map[K comparable, V any] struct {
	shards []shard[K, V]
	hash   func(K) uint64
	grace  int64 // how long past its expiry an entry is still served stale
}

// shard is one lock domain and its slice of the capacity. puts counts the
// shard's Puts: it is the clock that orders its entries' last uses.
type shard[K comparable, V any] struct {
	mu    sync.Mutex
	m     map[K]slot[V]
	limit int
	puts  uint64
}

// slot is one entry: the value, its expiry in Unix nanoseconds, and the
// shard's Put count when it was stored or last read fresh.
type slot[V any] struct {
	v    V
	exp  int64
	used uint64
}

// New builds a map holding at most capacity entries (minimum 1) over the
// largest power-of-two shard count, at most 64, that gives every shard 64
// entries, or one shard when none does; the shards' limits sum to capacity
// exactly. An entry is served stale for grace past its expiry (a negative
// grace reads as none) and is dead after that. hash spreads keys over the
// shards.
func New[K comparable, V any](capacity int, grace time.Duration, hash func(K) uint64) *Map[K, V] {
	capacity = max(capacity, 1)
	n := 1
	for n < maxShards && n<<1 <= capacity/minShardEntries {
		n <<= 1
	}
	m := &Map[K, V]{shards: make([]shard[K, V], n), hash: hash, grace: int64(max(grace, 0))}
	for i := range m.shards {
		m.shards[i].m = make(map[K]slot[V])
		m.shards[i].limit = capacity / n
		if i < capacity%n {
			m.shards[i].limit++
		}
	}
	return m
}

func (m *Map[K, V]) shard(k K) *shard[K, V] {
	if len(m.shards) == 1 {
		return &m.shards[0]
	}
	return &m.shards[m.hash(k)&uint64(len(m.shards)-1)]
}

// Get returns the value under k at now (Unix nanoseconds) and whether it is
// fresh. ok is false on a miss and for a dead entry, which Get drops. A fresh
// hit stamps the entry as used now, so it outlives every probed entry stored
// or read before it; a stale hit does not, so stale entries never outcompete
// live ones. A hit writes the map only when a Put has come since the stamp.
func (m *Map[K, V]) Get(k K, now int64) (v V, fresh, ok bool) {
	s := m.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, found := s.m[k]
	switch {
	case !found:
		return v, false, false
	case now < e.exp:
		if e.used != s.puts {
			e.used = s.puts
			s.m[k] = e
		}
		return e.v, true, true
	case now < e.exp+m.grace:
		return e.v, false, true
	default:
		delete(s.m, k)
		return v, false, false
	}
}

// Put stores v under k until exp (Unix nanoseconds), replacing any value k
// had. A new key in a full shard first makes room (evict), and Put reports
// whether that cost a live entry.
func (m *Map[K, V]) Put(k K, v V, exp, now int64) (evicted bool) {
	s := m.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[k]; !exists && len(s.m) >= s.limit {
		evicted = s.evict(now, m.grace)
	}
	s.m[k] = slot[V]{v: v, exp: exp, used: s.puts}
	s.puts++
	return evicted
}

// evict is the one eviction rule. It probes up to eight entries and deletes
// every one past its grace; when none is, it evicts the probed entry least
// recently used, the one stored or read fresh before the others (the first
// probed on a tie). An entry just stored or read is thus the last of its
// probes to go, whichever slot it sits in. It reports whether a live entry
// went. The caller holds s.mu.
func (s *shard[K, V]) evict(now, grace int64) bool {
	var victim K
	var victimUsed uint64
	dead, probed := 0, 0
	for k, e := range s.m {
		switch {
		case now >= e.exp+grace:
			delete(s.m, k)
			dead++
		case probed == 0 || e.used < victimUsed:
			victim, victimUsed = k, e.used
		}
		if probed++; probed == probes {
			break
		}
	}
	if dead > 0 || probed == 0 {
		return false
	}
	delete(s.m, victim)
	return true
}

// Len reports the number of entries, dead ones not yet dropped included.
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Flush drops every entry.
func (m *Map[K, V]) Flush() {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		s.m = make(map[K]slot[V])
		s.mu.Unlock()
	}
}
