package main

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// answer is what the benchmark compares per response: the 12-bit RCODE and
// the sorted set of EDE INFO-CODEs. maxEDE bounds the codes one response may
// carry; the population's worst case is three.
type answer struct {
	rcode uint16
	n     uint8
	codes [maxEDE]uint16
}

const maxEDE = 7

func answerOf(rcode uint16, codes []uint16) answer {
	a := answer{rcode: rcode}
	for _, c := range codes {
		if int(a.n) < maxEDE {
			a.codes[a.n] = c
			a.n++
		}
	}
	a.sortCodes()
	return a
}

// sortCodes orders the few codes in place without allocating.
func (a *answer) sortCodes() {
	s := a.codes[:a.n]
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

var (
	errShort    = errors.New("response truncated mid-record")
	errNotReply = errors.New("QR bit clear")
	errQuestion = errors.New("question not echoed")
)

// checkWire parses one response datagram with the benchmark's own walker —
// the served program's codec is under test, so the verifier must not share
// it — and returns its answer. It fails when the response does not parse,
// is not a response, or does not echo the query's question bytes. query and
// resp are whole DNS messages; the ID is compared by the caller, which
// matches responses to queries through it.
func checkWire(query, resp []byte) (answer, error) {
	var a answer
	if len(resp) < 12 {
		return a, errShort
	}
	flags := binary.BigEndian.Uint16(resp[2:])
	if flags&0x8000 == 0 {
		return a, errNotReply
	}
	a.rcode = flags & 0xF
	qd := int(binary.BigEndian.Uint16(resp[4:]))
	rrs := int(binary.BigEndian.Uint16(resp[6:])) + int(binary.BigEndian.Uint16(resp[8:])) + int(binary.BigEndian.Uint16(resp[10:]))

	// The query carries one question followed by at most an OPT record;
	// its question ends 11 bytes before the end when an OPT is present.
	qend := len(query)
	if binary.BigEndian.Uint16(query[10:]) == 1 {
		qend -= 11
	}
	question := query[12:qend]
	if qd != 1 || len(resp) < 12+len(question) || !bytes.Equal(resp[12:12+len(question)], question) {
		return a, errQuestion
	}
	off := 12 + len(question)

	for i := 0; i < rrs; i++ {
		var err error
		if off, err = skipName(resp, off); err != nil {
			return a, err
		}
		if off+10 > len(resp) {
			return a, errShort
		}
		typ := binary.BigEndian.Uint16(resp[off:])
		ttl := binary.BigEndian.Uint32(resp[off+4:])
		rdlen := int(binary.BigEndian.Uint16(resp[off+8:]))
		off += 10
		if off+rdlen > len(resp) {
			return a, errShort
		}
		if typ == 41 { // OPT: extended RCODE in the TTL's top byte, options in RDATA
			a.rcode |= uint16(ttl>>24) << 4
			opts := resp[off : off+rdlen]
			for len(opts) >= 4 {
				code := binary.BigEndian.Uint16(opts)
				olen := int(binary.BigEndian.Uint16(opts[2:]))
				if 4+olen > len(opts) {
					return a, errShort
				}
				if code == 15 && olen >= 2 && int(a.n) < maxEDE { // RFC 8914 EDE
					a.codes[a.n] = binary.BigEndian.Uint16(opts[4:])
					a.n++
				}
				opts = opts[4+olen:]
			}
		}
		off += rdlen
	}
	a.sortCodes()
	return a, nil
}

// skipName steps over one possibly compressed name.
func skipName(msg []byte, off int) (int, error) {
	for {
		if off >= len(msg) {
			return 0, errShort
		}
		l := int(msg[off])
		switch {
		case l == 0:
			return off + 1, nil
		case l&0xC0 == 0xC0:
			if off+2 > len(msg) {
				return 0, errShort
			}
			return off + 2, nil
		default:
			off += 1 + l
		}
	}
}
