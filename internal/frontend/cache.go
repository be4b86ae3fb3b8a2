package frontend

import (
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

// hash is FNV-1a over the name, mixed with the qtype and the CD bit; it
// picks the key's cache shard.
func (k key) hash() uint64 {
	h := (fnv1a.Sum64(k.name) ^ uint64(k.qtype)) * fnv1a.Prime64
	if k.cd {
		h = (h ^ 0xcd) * fnv1a.Prime64
	}
	return h
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

// keep stores e under k until its expiry, counting a live entry evicted to
// make room.
func (f *Frontend) keep(k key, e *entry, now time.Time) {
	if f.cache.Put(k, e, e.expiresAt.UnixNano(), now.UnixNano()) {
		f.metrics.evictions.Add(1)
	}
}
