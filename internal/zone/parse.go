package zone

import (
	"bufio"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// ParseMaster reads a zone in the master-file dialect Master emits
// ($ORIGIN/$TTL directives followed by one record per line) and rebuilds a
// servable Zone, including its denial index when NSEC/NSEC3 records are
// present. Together with Master it round-trips the testbed artifacts the
// paper publishes per misconfiguration.
func ParseMaster(r io.Reader) (*Zone, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)

	var z *Zone
	var origin dnswire.Name
	ttl := uint32(300)
	lineNo := 0

	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields, err := splitMasterFields(line)
		if err != nil {
			return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
		}
		switch fields[0] {
		case "$ORIGIN":
			if len(fields) != 2 {
				return nil, fmt.Errorf("zone: line %d: $ORIGIN needs a name", lineNo)
			}
			if origin, err = dnswire.NewName(fields[1]); err != nil {
				return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
			}
			continue
		case "$TTL":
			if len(fields) != 2 {
				return nil, fmt.Errorf("zone: line %d: $TTL needs a value", lineNo)
			}
			v, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
			}
			ttl = uint32(v)
			continue
		}
		if origin == "" {
			return nil, fmt.Errorf("zone: line %d: record before $ORIGIN", lineNo)
		}
		if z == nil {
			z = New(origin, ttl)
			z.RemoveRRset(origin, dnswire.TypeSOA) // replaced by the parsed SOA
		}
		rr, err := parseRecordLine(fields)
		if err != nil {
			return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
		}
		z.Add(rr)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if z == nil {
		return nil, fmt.Errorf("zone: no records")
	}
	z.RebuildDenialIndex()
	return z, nil
}

// splitMasterFields splits on whitespace, honouring double quotes (TXT).
func splitMasterFields(line string) ([]string, error) {
	var fields []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			fields = append(fields, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inQuote && c == '\\' && i+1 < len(line):
			// Keep escape sequences (including \") intact for Unquote.
			cur.WriteByte(c)
			i++
			cur.WriteByte(line[i])
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	flush()
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty record")
	}
	return fields, nil
}

// parseRecordLine decodes "owner ttl class type rdata...".
func parseRecordLine(fields []string) (dnswire.RR, error) {
	if len(fields) < 4 {
		return dnswire.RR{}, fmt.Errorf("short record %q", strings.Join(fields, " "))
	}
	owner, err := dnswire.NewName(fields[0])
	if err != nil {
		return dnswire.RR{}, err
	}
	ttl64, err := strconv.ParseUint(fields[1], 10, 32)
	if err != nil {
		return dnswire.RR{}, fmt.Errorf("bad TTL %q", fields[1])
	}
	if fields[2] != "IN" {
		return dnswire.RR{}, fmt.Errorf("unsupported class %q", fields[2])
	}
	data, err := parseRData(fields[3], fields[4:])
	if err != nil {
		return dnswire.RR{}, err
	}
	return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: uint32(ttl64), Data: data}, nil
}

func parseRData(typ string, f []string) (dnswire.RData, error) {
	name := func(i int) (dnswire.Name, error) { return dnswire.NewName(f[i]) }
	u8 := func(i int) (uint8, error) {
		v, err := strconv.ParseUint(f[i], 10, 8)
		return uint8(v), err
	}
	u16 := func(i int) (uint16, error) {
		v, err := strconv.ParseUint(f[i], 10, 16)
		return uint16(v), err
	}
	u32 := func(i int) (uint32, error) {
		v, err := strconv.ParseUint(f[i], 10, 32)
		return uint32(v), err
	}
	need := func(n int) error {
		if len(f) < n {
			return fmt.Errorf("%s: want %d rdata fields, have %d", typ, n, len(f))
		}
		return nil
	}

	switch typ {
	case "A":
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(f[0])
		if err != nil || !addr.Is4() {
			return nil, fmt.Errorf("bad A address %q", f[0])
		}
		return dnswire.A{Addr: addr}, nil
	case "AAAA":
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(f[0])
		if err != nil || addr.Is4() {
			return nil, fmt.Errorf("bad AAAA address %q", f[0])
		}
		return dnswire.AAAA{Addr: addr}, nil
	case "NS":
		if err := need(1); err != nil {
			return nil, err
		}
		h, err := name(0)
		return dnswire.NS{Host: h}, err
	case "CNAME":
		if err := need(1); err != nil {
			return nil, err
		}
		h, err := name(0)
		return dnswire.CNAME{Target: h}, err
	case "PTR":
		if err := need(1); err != nil {
			return nil, err
		}
		h, err := name(0)
		return dnswire.PTR{Target: h}, err
	case "MX":
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := u16(0)
		if err != nil {
			return nil, err
		}
		h, err := name(1)
		return dnswire.MX{Preference: pref, Host: h}, err
	case "TXT":
		var strs []string
		for _, q := range f {
			unq, err := strconv.Unquote(q)
			if err != nil {
				return nil, fmt.Errorf("bad TXT string %q: %w", q, err)
			}
			strs = append(strs, unq)
		}
		return dnswire.TXT{Strings: strs}, nil
	case "SOA":
		if err := need(7); err != nil {
			return nil, err
		}
		mname, err := name(0)
		if err != nil {
			return nil, err
		}
		rname, err := name(1)
		if err != nil {
			return nil, err
		}
		var nums [5]uint32
		for i := range nums {
			if nums[i], err = u32(2 + i); err != nil {
				return nil, err
			}
		}
		return dnswire.SOA{MName: mname, RName: rname, Serial: nums[0],
			Refresh: nums[1], Retry: nums[2], Expire: nums[3], Minimum: nums[4]}, nil
	case "DS":
		if err := need(4); err != nil {
			return nil, err
		}
		tag, err := u16(0)
		if err != nil {
			return nil, err
		}
		alg, err := u8(1)
		if err != nil {
			return nil, err
		}
		dt, err := u8(2)
		if err != nil {
			return nil, err
		}
		digest, err := hex.DecodeString(strings.ToLower(f[3]))
		if err != nil {
			return nil, err
		}
		return dnswire.DS{KeyTag: tag, Algorithm: alg, DigestType: dt, Digest: digest}, nil
	case "DNSKEY":
		if err := need(4); err != nil {
			return nil, err
		}
		flags, err := u16(0)
		if err != nil {
			return nil, err
		}
		proto, err := u8(1)
		if err != nil {
			return nil, err
		}
		alg, err := u8(2)
		if err != nil {
			return nil, err
		}
		key, err := base64.StdEncoding.DecodeString(strings.Join(f[3:], ""))
		if err != nil {
			return nil, err
		}
		return dnswire.DNSKEY{Flags: flags, Protocol: proto, Algorithm: alg, PublicKey: key}, nil
	case "RRSIG":
		if err := need(9); err != nil {
			return nil, err
		}
		covered, ok := typeByName(f[0])
		if !ok {
			return nil, fmt.Errorf("bad covered type %q", f[0])
		}
		alg, err := u8(1)
		if err != nil {
			return nil, err
		}
		labels, err := u8(2)
		if err != nil {
			return nil, err
		}
		origTTL, err := u32(3)
		if err != nil {
			return nil, err
		}
		exp, err := u32(4)
		if err != nil {
			return nil, err
		}
		inc, err := u32(5)
		if err != nil {
			return nil, err
		}
		tag, err := u16(6)
		if err != nil {
			return nil, err
		}
		signer, err := name(7)
		if err != nil {
			return nil, err
		}
		sig, err := base64.StdEncoding.DecodeString(strings.Join(f[8:], ""))
		if err != nil {
			return nil, err
		}
		return dnswire.RRSIG{TypeCovered: covered, Algorithm: alg, Labels: labels,
			OriginalTTL: origTTL, Expiration: exp, Inception: inc, KeyTag: tag,
			SignerName: signer, Signature: sig}, nil
	case "NSEC":
		if err := need(1); err != nil {
			return nil, err
		}
		next, err := name(0)
		if err != nil {
			return nil, err
		}
		types, err := typeList(f[1:])
		if err != nil {
			return nil, err
		}
		return dnswire.NSEC{NextName: next, Types: types}, nil
	case "NSEC3":
		if err := need(5); err != nil {
			return nil, err
		}
		alg, err := u8(0)
		if err != nil {
			return nil, err
		}
		flags, err := u8(1)
		if err != nil {
			return nil, err
		}
		iter, err := u16(2)
		if err != nil {
			return nil, err
		}
		salt, err := parseSalt(f[3])
		if err != nil {
			return nil, err
		}
		next, err := dnswire.DecodeBase32Hex(f[4])
		if err != nil {
			return nil, err
		}
		types, err := typeList(f[5:])
		if err != nil {
			return nil, err
		}
		return dnswire.NSEC3{HashAlg: alg, Flags: flags, Iterations: iter,
			Salt: salt, NextHashed: next, Types: types}, nil
	case "NSEC3PARAM":
		if err := need(4); err != nil {
			return nil, err
		}
		alg, err := u8(0)
		if err != nil {
			return nil, err
		}
		flags, err := u8(1)
		if err != nil {
			return nil, err
		}
		iter, err := u16(2)
		if err != nil {
			return nil, err
		}
		salt, err := parseSalt(f[3])
		if err != nil {
			return nil, err
		}
		return dnswire.NSEC3PARAM{HashAlg: alg, Flags: flags, Iterations: iter, Salt: salt}, nil
	default:
		return nil, fmt.Errorf("unsupported record type %q", typ)
	}
}

func parseSalt(s string) ([]byte, error) {
	if s == "-" {
		return nil, nil
	}
	return hex.DecodeString(strings.ToLower(s))
}

func typeList(fields []string) ([]dnswire.Type, error) {
	var out []dnswire.Type
	for _, f := range fields {
		t, ok := typeByName(f)
		if !ok {
			return nil, fmt.Errorf("unknown type %q in bitmap", f)
		}
		out = append(out, t)
	}
	return out, nil
}

func typeByName(s string) (dnswire.Type, bool) {
	switch s {
	case "A":
		return dnswire.TypeA, true
	case "NS":
		return dnswire.TypeNS, true
	case "CNAME":
		return dnswire.TypeCNAME, true
	case "SOA":
		return dnswire.TypeSOA, true
	case "PTR":
		return dnswire.TypePTR, true
	case "MX":
		return dnswire.TypeMX, true
	case "TXT":
		return dnswire.TypeTXT, true
	case "AAAA":
		return dnswire.TypeAAAA, true
	case "DS":
		return dnswire.TypeDS, true
	case "RRSIG":
		return dnswire.TypeRRSIG, true
	case "NSEC":
		return dnswire.TypeNSEC, true
	case "DNSKEY":
		return dnswire.TypeDNSKEY, true
	case "NSEC3":
		return dnswire.TypeNSEC3, true
	case "NSEC3PARAM":
		return dnswire.TypeNSEC3PARAM, true
	}
	if strings.HasPrefix(s, "TYPE") {
		v, err := strconv.ParseUint(s[4:], 10, 16)
		if err == nil {
			return dnswire.Type(v), true
		}
	}
	return 0, false
}

// RebuildDenialIndex reconstructs the NSEC3 or NSEC serving index from the
// zone's stored records (after ParseMaster, or after manual record edits).
// It also marks the zone signed when RRSIGs are present.
func (z *Zone) RebuildDenialIndex() {
	z.nsec3Chain = nil
	z.nsecChain = nil
	for k := range z.rrsets {
		switch k.typ {
		case dnswire.TypeNSEC3:
			labels := k.name.Labels()
			if len(labels) == 0 {
				continue
			}
			hash, err := dnswire.DecodeBase32Hex(labels[0])
			if err != nil {
				continue
			}
			z.nsec3Chain = append(z.nsec3Chain, nsec3Entry{hash: hash, owner: k.name})
		case dnswire.TypeNSEC:
			z.nsecChain = append(z.nsecChain, k.name)
		case dnswire.TypeNSEC3PARAM:
			if set := z.rrsets[k]; len(set) > 0 {
				z.NSEC3Params = set[0].Data.(dnswire.NSEC3PARAM)
			}
		}
	}
	sortEntries(z.nsec3Chain)
	sortNames(z.nsecChain)
	z.nsecMode = len(z.nsecChain) > 0 && len(z.nsec3Chain) == 0
	z.signed = len(z.sigs) > 0
}

func sortNames(names []dnswire.Name) {
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j].Compare(names[j-1]) < 0; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
}
