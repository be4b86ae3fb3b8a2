package frontend

import (
	"encoding/binary"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// Wire fast path: cache entries carry pre-packed response bytes plus a
// table of TTL byte-offsets, so a compatible query (same question tuple,
// CD bit, DO bit, and EDNS class as an earlier client) is answered by
// copying the cached wire into the caller's buffer and patching three
// things in place — the 2-byte ID, the RD header bit, and each TTL —
// with no message rebuild and no re-pack.
//
// Variants are captured lazily from the slow path: the first fresh reply of
// each EDNS class — the miss that fills the entry, for the class that asked
// it — is packed once with TTL-offset recording and published on the entry,
// so the next compatible query is already a wire serve. Stale and
// error-cache replies are never captured. Byte identity with the slow
// path is therefore by construction, and the TTL patch reproduces the
// slow path's decay arithmetic exactly: a stored TTL is
// max(orig-baseAge, 1), and patching by delta = age-baseAge yields
// max(orig-age, 1) in every case.

// Variant indices: one pre-packed image per EDNS class, because an EDNS
// client's reply carries an OPT (and any entry EDEs) while a pre-EDNS
// client's must not.
const (
	wirePlain = 0
	wireEDNS  = 1
)

// wireVariant is one immutable pre-packed response image.
type wireVariant struct {
	// wire is the packed reply as some slow-path client received it
	// (its ID, RD bit, and TTL decay — all patched per hit).
	wire []byte
	// ttlOffs are the message-relative offsets of every RR TTL field.
	ttlOffs []uint16
	// baseAge is the entry age, in whole seconds, at capture time.
	baseAge uint32
	// edeCodes are the EDE info-codes the reply carries, re-counted on
	// every wire hit so emission metrics match the slow path.
	edeCodes []uint16
}

// ServeWire answers a scanned query from the cached wire image, appending
// the response to dst. ok=false means no compatible image exists (miss,
// stale, error-cache entry, not captured yet, or the image exceeds limit)
// and the caller must fall back to the full path. The fast path performs
// no allocations beyond what dst's capacity forces.
func (f *Frontend) ServeWire(q dnswire.WireQuery, limit int, dst []byte) ([]byte, bool) {
	if q.Class != dnswire.ClassIN {
		return nil, false
	}
	k := key{name: q.Name, qtype: q.Type, do: q.DO, cd: q.CD}
	now := f.cfg.Now()
	e, fresh, ok := f.cache.get(k, now, f.cfg.StaleWindow)
	if !ok || !fresh || e.isError {
		return nil, false
	}
	idx := wirePlain
	if q.HasEDNS {
		idx = wireEDNS
	}
	v := e.wires[idx].Load()
	if v == nil || len(v.wire) > limit {
		// Not captured yet, or the reply would need the truncation ladder:
		// both are the slow path's job.
		return nil, false
	}

	f.metrics.queries.Add(1)
	f.metrics.hits.Add(1)
	f.metrics.wireHits.Add(1)
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
// EDNS class, once. Called from reply() for fresh non-error serves only —
// stale replies and error-cache replies carry per-hit dynamic content
// (fixed stale TTLs aside, the EDE 13 retry countdown changes every
// second) and are never wire-served.
func (f *Frontend) maybeCaptureWire(e *entry, out *dnswire.Message, now time.Time) {
	idx := wirePlain
	if out.OPT != nil {
		idx = wireEDNS
	}
	if e.wires[idx].Load() != nil {
		return
	}
	wire, offs, err := out.AppendPackTTLOffsets(nil, nil)
	if err != nil {
		return
	}
	v := &wireVariant{wire: wire, ttlOffs: offs, baseAge: entryAge(e, now)}
	if out.OPT != nil {
		for _, o := range out.EDEs() {
			v.edeCodes = append(v.edeCodes, o.InfoCode)
		}
	}
	e.wires[idx].Store(v)
}

// entryAge is the whole seconds since the entry was stored, matching the
// slow path's age arithmetic in reply().
func entryAge(e *entry, now time.Time) uint32 {
	if d := now.Sub(e.storedAt); d > 0 {
		return uint32(d / time.Second)
	}
	return 0
}
