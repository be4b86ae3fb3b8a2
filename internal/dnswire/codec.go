package dnswire

import (
	"encoding/binary"
	"strings"
	"sync"
)

// maxCompressTargets bounds the number of name-suffix offsets a builder
// remembers for compression. Beyond the cap, later names are simply emitted
// without pointers — the encoding stays valid, it is just a little larger.
// DNS messages in this system carry a few dozen names at most, so the cap is
// effectively never hit.
const maxCompressTargets = 128

// builder appends wire-format data to a buffer and tracks name-compression
// targets. Compression is applied only where RFC 3597 permits (owner names
// and the names inside pre-RFC-3597 RDATA: NS, CNAME, SOA, PTR, MX).
//
// Unlike the map-based approach, compression targets are a fixed array of
// buffer offsets: matching walks the raw label bytes already written, so a
// Pack performs no per-message bookkeeping allocations. Builders are pooled;
// use newBuilder/release in pairs.
type builder struct {
	buf      []byte
	base     int // offset of the message start within buf (AppendPack)
	compress bool
	nameOffs [maxCompressTargets]uint16 // message-relative suffix offsets
	nOffs    int
	// recordTTL makes rrTTL note the message-relative offset of every RR
	// TTL field in ttlOffs (the OPT pseudo-RR's TTL carries flags, not a
	// lifetime, and is written with uint32 so it is never recorded). The
	// frontend's wire cache uses the offsets to decay TTLs in place on
	// pre-packed responses.
	recordTTL bool
	ttlOffs   []uint16
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

// newBuilder fetches a pooled builder appending to buf (nil for a fresh
// buffer). Pair with release.
func newBuilder(compress bool, buf []byte) *builder {
	b := builderPool.Get().(*builder)
	b.buf = buf
	b.base = len(buf)
	b.compress = compress
	b.nOffs = 0
	b.recordTTL = false
	b.ttlOffs = nil
	return b
}

// release returns the built bytes and recycles the builder. The builder must
// not be used afterwards.
func (b *builder) release() []byte {
	out := b.buf
	b.buf = nil
	builderPool.Put(b)
	return out
}

func (b *builder) uint8(v uint8)   { b.buf = append(b.buf, v) }
func (b *builder) uint16(v uint16) { b.buf = binary.BigEndian.AppendUint16(b.buf, v) }
func (b *builder) uint32(v uint32) { b.buf = binary.BigEndian.AppendUint32(b.buf, v) }
func (b *builder) bytes(p []byte)  { b.buf = append(b.buf, p...) }
func (b *builder) str(s string)    { b.buf = append(b.buf, s...) }

// rrTTL writes an RR TTL field, recording its message-relative offset when
// TTL recording is on.
func (b *builder) rrTTL(v uint32) {
	if b.recordTTL {
		b.ttlOffs = append(b.ttlOffs, uint16(len(b.buf)-b.base))
	}
	b.uint32(v)
}

// beginLength16 reserves a 16-bit length slot (RDLENGTH, OPTION-LENGTH) and
// returns its position for endLength16.
func (b *builder) beginLength16() int {
	at := len(b.buf)
	b.uint16(0)
	return at
}

// endLength16 patches the slot reserved at `at` with the number of bytes
// appended since.
func (b *builder) endLength16(at int) {
	binary.BigEndian.PutUint16(b.buf[at:], uint16(len(b.buf)-at-2))
}

// name encodes n, using compression pointers when allowed and profitable.
func (b *builder) name(n Name, allowCompress bool) {
	s := string(n)
	if len(s) == 0 || s == "." {
		b.uint8(0)
		return
	}
	if strings.IndexByte(s, '\\') >= 0 {
		// The rare names carrying \. or \DDD escapes are emitted without
		// compression and never recorded as targets: their raw label bytes
		// could mimic the label structure of a plain name, which would make
		// raw-buffer suffix matching unsound.
		b.buf = n.AppendWire(b.buf)
		return
	}
	// Canonical names are lowercase, dot-terminated, escape-free: each label
	// is the run up to the next dot, and its bytes go to the wire verbatim.
	for len(s) > 0 {
		if b.compress {
			if allowCompress {
				if off, ok := b.findSuffix(s); ok {
					b.uint16(0xC000 | uint16(off))
					return
				}
			}
			if off := len(b.buf) - b.base; off < 0x4000 && b.nOffs < maxCompressTargets {
				b.nameOffs[b.nOffs] = uint16(off)
				b.nOffs++
			}
		}
		dot := strings.IndexByte(s, '.')
		b.uint8(uint8(dot))
		b.str(s[:dot])
		s = s[dot+1:]
	}
	b.uint8(0)
}

// findSuffix looks for an earlier encoding of the presentation-form suffix s
// ("b.c.") among the recorded compression targets and returns its
// message-relative offset.
func (b *builder) findSuffix(s string) (int, bool) {
	for i := 0; i < b.nOffs; i++ {
		off := int(b.nameOffs[i])
		if b.nameAtMatches(off, s) {
			return off, true
		}
	}
	return 0, false
}

// nameAtMatches walks the (possibly pointer-terminated) name encoded at the
// message-relative offset off and reports whether it spells exactly s.
func (b *builder) nameAtMatches(off int, s string) bool {
	for hops := 0; hops < 128; hops++ {
		at := b.base + off
		if at >= len(b.buf) {
			return false
		}
		c := b.buf[at]
		switch {
		case c == 0:
			return len(s) == 0
		case c&0xC0 == 0xC0:
			if at+2 > len(b.buf) {
				return false
			}
			off = int(binary.BigEndian.Uint16(b.buf[at:]) & 0x3FFF)
		case c&0xC0 != 0:
			return false
		default:
			l := int(c)
			if at+1+l > len(b.buf) || len(s) < l+1 || s[l] != '.' {
				return false
			}
			if string(b.buf[at+1:at+1+l]) != s[:l] {
				return false
			}
			off += 1 + l
			s = s[l+1:]
		}
	}
	return false
}

// parser reads wire-format data. Compression pointers may target any earlier
// byte of the message, so the parser keeps the whole message around.
// Parsers are pooled by Unpack.
type parser struct {
	msg []byte
	off int
}

var parserPool = sync.Pool{New: func() any { return new(parser) }}

func (p *parser) remaining() int { return len(p.msg) - p.off }

func (p *parser) uint8() (uint8, error) {
	if p.remaining() < 1 {
		return 0, ErrTruncatedName
	}
	v := p.msg[p.off]
	p.off++
	return v, nil
}

func (p *parser) uint16() (uint16, error) {
	if p.remaining() < 2 {
		return 0, ErrTruncatedName
	}
	v := binary.BigEndian.Uint16(p.msg[p.off:])
	p.off += 2
	return v, nil
}

func (p *parser) uint32() (uint32, error) {
	if p.remaining() < 4 {
		return 0, ErrTruncatedName
	}
	v := binary.BigEndian.Uint32(p.msg[p.off:])
	p.off += 4
	return v, nil
}

func (p *parser) bytes(n int) ([]byte, error) {
	if n < 0 || p.remaining() < n {
		return nil, ErrTruncatedName
	}
	v := p.msg[p.off : p.off+n]
	p.off += n
	return v, nil
}

// name decodes a possibly-compressed domain name starting at the current
// offset and leaves the offset just past the name (past the first pointer if
// one was followed).
func (p *parser) name() (Name, error) {
	n, next, err := decodeNameAt(p.msg, p.off)
	if err != nil {
		return "", err
	}
	p.off = next
	return n, nil
}

// decodeNameAt decodes the name at offset off in msg and returns it together
// with the offset of the first byte after the name's encoding at off.
func decodeNameAt(msg []byte, off int) (Name, int, error) {
	if n, next, ok := decodeNamePlain(msg, off); ok {
		return n, next, nil
	}
	return decodeNameSlow(msg, off)
}

// decodeNamePlain is the fast path: an uncompressed name whose labels are
// already lowercase and need no presentation-form escaping — the only kind
// this system's own servers and resolvers emit. It builds the presentation
// string in a single allocation, or reports ok=false to fall back to the
// general decoder.
func decodeNamePlain(msg []byte, off int) (Name, int, bool) {
	start := off
	wireLen := 1
	empty := true
	for {
		if off >= len(msg) {
			return "", 0, false
		}
		c := msg[off]
		if c == 0 {
			if empty {
				return Root, off + 1, true
			}
			break
		}
		if c&0xC0 != 0 {
			return "", 0, false
		}
		l := int(c)
		wireLen += l + 1
		if off+1+l > len(msg) || wireLen > MaxNameLength {
			return "", 0, false
		}
		for _, ch := range msg[off+1 : off+1+l] {
			if ch < '!' || ch > '~' || ch == '.' || ch == '\\' || ('A' <= ch && ch <= 'Z') {
				return "", 0, false
			}
		}
		empty = false
		off += 1 + l
	}
	// Assemble in a stack scratch so the only heap allocation is the final
	// string conversion (this sits on the wire cache's per-hit alloc budget).
	var scratch [MaxNameLength]byte
	out := scratch[:0]
	for o := start; ; {
		l := int(msg[o])
		if l == 0 {
			break
		}
		out = append(out, msg[o+1:o+1+l]...)
		out = append(out, '.')
		o += 1 + l
	}
	return Name(out), off + 1, true
}

// decodeNameSlow handles compression pointers, uppercase labels, and bytes
// needing escapes. It builds the presentation form in a stack scratch buffer
// sized for the worst case (every byte escaped to \DDD) and allocates once
// for the final string.
func decodeNameSlow(msg []byte, off int) (Name, int, error) {
	var scratch [4 * MaxNameLength]byte
	out := scratch[:0]
	ptrBudget := 128 // generous loop guard
	next := -1       // offset after the name at the original position
	totalLen := 1
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedName
		}
		c := msg[off]
		switch {
		case c == 0:
			if next < 0 {
				next = off + 1
			}
			if len(out) == 0 {
				return Root, next, nil
			}
			return Name(out), next, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedName
			}
			target := int(binary.BigEndian.Uint16(msg[off:]) & 0x3FFF)
			if next < 0 {
				next = off + 2
			}
			if target >= off {
				return "", 0, ErrBadPointer
			}
			ptrBudget--
			if ptrBudget == 0 {
				return "", 0, ErrPointerLoop
			}
			off = target
		case c&0xC0 != 0:
			return "", 0, ErrBadPointer
		default:
			l := int(c)
			if off+1+l > len(msg) {
				return "", 0, ErrTruncatedName
			}
			totalLen += l + 1
			if totalLen > MaxNameLength {
				return "", 0, ErrNameTooLong
			}
			out = appendPresentationLabel(out, msg[off+1:off+1+l])
			out = append(out, '.')
			off += 1 + l
		}
	}
}

// appendPresentationLabel lower-cases raw and escapes the bytes that are
// special in presentation form.
func appendPresentationLabel(dst []byte, raw []byte) []byte {
	for _, c := range raw {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		switch {
		case c == '.' || c == '\\':
			dst = append(dst, '\\', c)
		case c < '!' || c > '~':
			dst = append(dst, '\\', '0'+c/100, '0'+c/10%10, '0'+c%10)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}
