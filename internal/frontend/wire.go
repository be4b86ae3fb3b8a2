package frontend

import (
	"encoding/binary"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// Wire fast path: cache entries carry pre-packed response bytes plus a
// table of TTL byte-offsets, so a compatible query (same question tuple,
// CD bit, and client class — wireIndex — as an earlier client) is answered
// by copying the cached wire into the caller's buffer and patching three
// things in place — the 2-byte ID, the RD header bit, and each TTL — with
// no message rebuild and no re-pack.
//
// Variants are captured lazily from the slow path: the first fresh or
// cached-error reply of each client class — for a positive entry the miss
// that fills it or the class's first hit, for an error entry the first
// EDE 13 hit — is packed once with TTL-offset recording and published on
// the entry, so the next compatible query is already a wire serve. Stale,
// overload and first-failure replies are never captured. Byte identity with the slow path is therefore by
// construction, and the TTL patch reproduces the slow path's decay
// arithmetic exactly: a stored TTL is max(orig-baseAge, 1), and patching by
// delta = age-baseAge yields max(orig-age, 1) in every case.
//
// An error entry's EDNS image also carries the EDE 13 retry countdown, the
// one part of it no patch can redo, so it is valid only while retryAfter
// still reads the second it was captured in: ServeWire declines otherwise,
// and the slow-path reply to that query recaptures. A cached failure thus
// costs the slow path once per second per EDNS client class, plus whatever
// queries arrive after a tick before the recapture lands.

// wireIndex picks an entry's pre-packed image for a client: one for a
// pre-EDNS client, whose reply must carry no OPT, and one per DO bit for an
// EDNS client, since the OPT echoes DO and only a DO=1 reply carries RRSIGs
// and AD.
func wireIndex(edns, do bool) int {
	switch {
	case !edns:
		return 0
	case !do:
		return 1
	default:
		return 2
	}
}

// wireVariant is one immutable pre-packed response image.
type wireVariant struct {
	// wire is the packed reply as some slow-path client received it
	// (its ID, RD bit, and TTL decay — all patched per hit).
	wire []byte
	// ttlOffs are the message-relative offsets of every RR TTL field.
	ttlOffs []uint16
	// baseAge is the entry age, in whole seconds, at capture time.
	baseAge uint32
	// retry is the EDE 13 countdown the image carries, 0 when it carries
	// none (every entry but an error entry's EDNS image, and that one too
	// under a profile that does not mark cached errors).
	retry uint32
	// edeCodes are the EDE info-codes the reply carries, re-counted on
	// every wire hit so emission metrics match the slow path.
	edeCodes []uint16
}

// ServeWire answers a scanned query from the cached wire image, appending
// the response to dst. ok=false means no compatible image exists (miss,
// stale, not captured yet, an error image whose countdown has moved on, or
// the image exceeds limit) and the caller must fall back to the full path.
// The fast path performs no allocations beyond what dst's capacity forces.
func (f *Frontend) ServeWire(q dnswire.WireQuery, limit int, dst []byte) ([]byte, bool) {
	if q.Class != dnswire.ClassIN {
		return nil, false
	}
	k := key{name: q.Name, qtype: q.Type, cd: q.CD}
	now := f.cfg.Now()
	e, fresh, ok := f.cache.Get(k, now.UnixNano())
	if !ok || !fresh {
		return nil, false
	}
	v := e.wires[wireIndex(q.HasEDNS, q.DO)].Load()
	if v == nil || len(v.wire) > limit || v.retry != 0 && v.retry != retryAfter(e, now) {
		// Not captured yet, the reply would need the truncation ladder, or
		// the retry countdown reads another second: all the slow path's job.
		return nil, false
	}

	f.metrics.queries.Add(1)
	f.metrics.hits.Add(1)
	f.metrics.wireHits.Add(1)
	if e.isError {
		f.metrics.cachedErrors.Add(1)
	}
	for _, c := range v.edeCodes {
		f.metrics.countEDE(c)
	}

	base := len(dst)
	out := append(dst, v.wire...)
	msg := out[base:]
	binary.BigEndian.PutUint16(msg, q.ID)
	const rdBit = 0x01 // low bit of flags byte 2
	if q.RD {
		msg[2] |= rdBit
	} else {
		msg[2] &^= rdBit
	}
	if age := entryAge(e, now); age > v.baseAge {
		delta := age - v.baseAge
		for _, off := range v.ttlOffs {
			ttl := binary.BigEndian.Uint32(msg[off:])
			if ttl > delta {
				ttl -= delta
			} else {
				ttl = 1
			}
			binary.BigEndian.PutUint32(msg[off:], ttl)
		}
	}
	return out, true
}

// maybeCaptureWire publishes out as the entry's pre-packed image for its
// client class when there is none yet or the stored one carries another retry
// countdown. Called from reply() for fresh and cached-error serves only:
// stale and overload replies carry per-hit content no patch reproduces. Two
// slow paths racing across a second boundary may store out of order; the
// last store wins, and ServeWire's countdown check keeps either correct.
func (f *Frontend) maybeCaptureWire(e *entry, out *dnswire.Message, now time.Time) {
	// The image echoes the capturing query's question, and ServeWire serves
	// only class IN: a reply to another class must not become the image.
	if len(out.Question) != 1 || out.Question[0].Class != dnswire.ClassIN {
		return
	}
	idx := wireIndex(out.OPT != nil, out.DO())
	var retry uint32
	if out.OPT != nil && e.isError && f.countdown {
		retry = retryAfter(e, now)
	}
	if v := e.wires[idx].Load(); v != nil && v.retry == retry {
		return
	}
	wire, offs, err := out.AppendPackTTLOffsets(nil, nil)
	if err != nil {
		return
	}
	v := &wireVariant{wire: wire, ttlOffs: offs, baseAge: entryAge(e, now), retry: retry}
	if out.OPT != nil {
		for _, o := range out.EDEs() {
			v.edeCodes = append(v.edeCodes, o.InfoCode)
		}
	}
	e.wires[idx].Store(v)
}

// retryAfter is the EDE 13 countdown an error entry reads at now: the whole
// seconds until it expires, at least 1 (the Cloudflare idiom's EXTRA-TEXT).
func retryAfter(e *entry, now time.Time) uint32 {
	return uint32(max(e.expiresAt.Sub(now)/time.Second, 1))
}

// entryAge is the whole seconds since the entry was stored, matching the
// slow path's age arithmetic in reply().
func entryAge(e *entry, now time.Time) uint32 {
	if d := now.Sub(e.storedAt); d > 0 {
		return uint32(d / time.Second)
	}
	return 0
}
