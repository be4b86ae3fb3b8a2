package dnswire

import "encoding/binary"

// WireQuery is the compatibility-relevant shape of a simple query datagram,
// extracted without building a Message. It exists for the serving fast
// path: the frontend's wire cache answers a WireQuery by patching a
// pre-packed response, so the scan must capture exactly the fields that
// influence the reply (ID and RD are patched in; CD, DO, and the question
// tuple select the cached wire; HasEDNS selects the variant with or without
// an OPT; UDPSize bounds the response size).
type WireQuery struct {
	ID      uint16
	RD      bool
	CD      bool
	DO      bool
	HasEDNS bool
	UDPSize uint16
	Name    Name
	Type    Type
	Class   Class
}

// ScanQuery extracts a WireQuery from a raw datagram. ok=false means the
// datagram is not a plain single-question query — compressed or escaped
// qname, non-QUERY opcode, extra sections, EDNS options, nonzero EDNS
// version, or trailing bytes — and the caller must fall back to Unpack and
// the full serving path. The scan is deliberately stricter than Unpack:
// anything it accepts, Unpack accepts with an identical interpretation, so
// a wire-cache answer is always interchangeable with a slow-path one.
//
// The only allocation is the canonical Name string (needed as a cache key).
func ScanQuery(data []byte) (WireQuery, bool) {
	var q WireQuery
	if len(data) < 12 {
		return q, false
	}
	flags := binary.BigEndian.Uint16(data[2:])
	// QR must be clear and the opcode QUERY; only RD, CD, and AD (which a
	// reply does not echo) may be set. Everything else — TC, RA, Z, a
	// nonzero RCODE in a query — goes to the slow path.
	if flags&^uint16(flagRD|flagCD|flagAD) != 0 {
		return q, false
	}
	qd := binary.BigEndian.Uint16(data[4:])
	an := binary.BigEndian.Uint16(data[6:])
	ns := binary.BigEndian.Uint16(data[8:])
	ar := binary.BigEndian.Uint16(data[10:])
	if qd != 1 || an != 0 || ns != 0 || ar > 1 {
		return q, false
	}
	name, off, ok := decodeNamePlain(data, 12)
	if !ok {
		return q, false
	}
	if off+4 > len(data) {
		return q, false
	}
	q.Type = Type(binary.BigEndian.Uint16(data[off:]))
	q.Class = Class(binary.BigEndian.Uint16(data[off+2:]))
	off += 4
	if ar == 1 {
		// The lone additional record must be a well-formed OPT: root owner,
		// EDNS version 0, no extended-RCODE bits, and empty RDATA (any
		// options — cookies, keepalive — take the full parsing path).
		if off+11 > len(data) || data[off] != 0 {
			return q, false
		}
		if Type(binary.BigEndian.Uint16(data[off+1:])) != TypeOPT {
			return q, false
		}
		q.UDPSize = binary.BigEndian.Uint16(data[off+3:])
		ttl := binary.BigEndian.Uint32(data[off+5:])
		if ttl&^uint32(1<<15) != 0 {
			return q, false
		}
		q.DO = ttl&(1<<15) != 0
		if binary.BigEndian.Uint16(data[off+9:]) != 0 {
			return q, false
		}
		off += 11
		q.HasEDNS = true
	}
	if off != len(data) {
		return q, false
	}
	q.ID = binary.BigEndian.Uint16(data)
	q.RD = flags&flagRD != 0
	q.CD = flags&flagCD != 0
	q.Name = name
	return q, true
}

// TrailingOPT locates the OPT pseudo-RR of a packed message that ends with
// it — where this package's packer always puts it — and returns the
// message-relative offset of its owner byte; the RDLENGTH field sits nine
// bytes further, the options directly behind that. It exists so the stream
// transports can extend a pre-packed response's OPT in place. ok=false
// means the message is malformed, carries no record, or ends in another RR.
func TrailingOPT(msg []byte) (off int, ok bool) {
	if len(msg) < 12 {
		return 0, false
	}
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	rrs := int(binary.BigEndian.Uint16(msg[6:])) + int(binary.BigEndian.Uint16(msg[8:])) + int(binary.BigEndian.Uint16(msg[10:]))
	if rrs == 0 {
		return 0, false
	}
	end := 12
	for i := 0; i < qd+rrs; i++ {
		off = end
		if end, ok = skipName(msg, off); !ok {
			return 0, false
		}
		if i < qd {
			end += 4 // type, class
			continue
		}
		// type, class, TTL, RDLENGTH, RDATA
		if end+10 > len(msg) {
			return 0, false
		}
		end += 10 + int(binary.BigEndian.Uint16(msg[end+8:]))
	}
	if end != len(msg) || msg[off] != 0 || Type(binary.BigEndian.Uint16(msg[off+1:])) != TypeOPT {
		return 0, false
	}
	return off, true
}

// AnswerTTL returns the smallest TTL in the answer section of a packed
// response whose RCODE, extended bits included, is NOERROR. ok=false means
// another RCODE, an empty answer section, or a malformed message. It lets
// DoH derive an answer's HTTP freshness (RFC 8484 §5.1) from the bytes it
// sends.
func AnswerTTL(msg []byte) (ttl uint32, ok bool) {
	if len(msg) < 12 || msg[3]&0x0F != 0 {
		return 0, false
	}
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	rrs := an + int(binary.BigEndian.Uint16(msg[8:])) + int(binary.BigEndian.Uint16(msg[10:]))
	answers, end := 0, 12
	for i := 0; i < qd+rrs; i++ {
		if end, ok = skipName(msg, end); !ok {
			return 0, false
		}
		if i < qd {
			end += 4 // type, class
			continue
		}
		if end+10 > len(msg) {
			return 0, false
		}
		t := binary.BigEndian.Uint32(msg[end+4:])
		switch {
		case Type(binary.BigEndian.Uint16(msg[end:])) == TypeOPT:
			if t>>24 != 0 { // extended RCODE bits
				return 0, false
			}
		case i < qd+an:
			if answers == 0 || t < ttl {
				ttl = t
			}
			answers++
		}
		end += 10 + int(binary.BigEndian.Uint16(msg[end+8:]))
	}
	return ttl, answers > 0 && end == len(msg)
}

// skipName returns the offset just past the possibly compressed name at
// off, without following pointers.
func skipName(msg []byte, off int) (int, bool) {
	for off < len(msg) {
		switch b := msg[off]; {
		case b == 0:
			return off + 1, true
		case b&0xC0 == 0xC0:
			return off + 2, off+2 <= len(msg)
		case b&0xC0 != 0:
			return 0, false
		default:
			off += 1 + int(b)
		}
	}
	return 0, false
}
