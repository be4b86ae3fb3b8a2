package frontend

import (
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// PeekKey is the exported cache address used by cross-replica peeking: the
// same tuple the internal key carries (question + CD), visible to the
// cluster router without exposing cache internals. It is also the tuple the
// router places on its ring.
type PeekKey struct {
	Name dnswire.Name
	Type dnswire.Type
	CD   bool
}

func (pk PeekKey) internal() key {
	return key{name: pk.Name, qtype: pk.Type, cd: pk.CD}
}

func (k key) peekKey() PeekKey {
	return PeekKey{Name: k.name, Type: k.qtype, CD: k.cd}
}

// SharedEntry is an opaque handle to one immutable cache entry.
// Because entries are immutable once stored (including their lazily captured
// pre-packed wire images, published via atomic pointers), a SharedEntry can
// be handed to another Frontend in the same process and stored in its cache
// without copying: a peek shares the peer's wire bytes for free.
type SharedEntry struct {
	e *entry
}

// Fresh reports whether the entry is still inside its TTL at now.
func (se *SharedEntry) Fresh(now time.Time) bool { return now.Before(se.e.expiresAt) }

// PeekShared returns the entry cached under pk, if any, without triggering
// any upstream work. ok is false when nothing usable is cached. With staleOK
// false only fresh entries are returned; with staleOK true an expired
// non-error entry inside the stale window is returned too (the caller serves
// it under RFC 8767 rules). Error-cache entries are shared only while fresh:
// peers re-emit them with the same EDE 13 retry countdown a local hit would
// produce, which is what keeps drain-time answers byte-identical.
func (f *Frontend) PeekShared(pk PeekKey, staleOK bool) (*SharedEntry, bool) {
	now := f.cfg.Now()
	e, fresh, ok := f.cache.Get(pk.internal(), now.UnixNano())
	if !ok {
		return nil, false
	}
	if !fresh && (!staleOK || e.isError) {
		return nil, false
	}
	return &SharedEntry{e: e}, true
}

// peekFresh consults the cross-replica peek hook for a fresh entry before
// recursing. A hit is stored locally and served as if it were a local cache
// hit — this is what keeps singleflight global across replicas: the flight
// leader on a non-owner replica rides the owner's cache instead of starting
// a second recursion. The stored entry keeps the peer's storedAt/expiresAt,
// so TTL decay and EDE 13 retry arithmetic match the peer's (and a
// single-replica frontend's) answers exactly.
func (f *Frontend) peekFresh(k key) *served {
	se, ok := f.cfg.Peek(k.peekKey(), false)
	if !ok || se == nil {
		return nil
	}
	f.keep(k, se.e, f.cfg.Now())
	if se.e.isError {
		return &served{mode: modeCachedError, e: se.e}
	}
	return &served{mode: modeFresh, e: se.e}
}

// peekStale consults the peek hook for a peer entry after a failed
// recursion, the cross-replica arm of RFC 8767 rescue. A peer entry that
// turned fresh in the meantime (the owner just refilled it) is served fresh.
func (f *Frontend) peekStale(k key, now time.Time) *served {
	se, ok := f.cfg.Peek(k.peekKey(), true)
	if !ok || se == nil {
		return nil
	}
	f.keep(k, se.e, now)
	switch {
	case se.e.isError:
		if !se.Fresh(now) {
			return nil
		}
		return &served{mode: modeCachedError, e: se.e}
	case se.Fresh(now):
		return &served{mode: modeFresh, e: se.e}
	case se.e.rcode == dnswire.RCodeNXDomain:
		return &served{mode: modeStaleNX, e: se.e}
	default:
		return &served{mode: modeStale, e: se.e}
	}
}
