package zone

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// This file provides the mutation primitives the testbed composes into the
// paper's Table 3 misconfigurations. Every mutator operates on an already
// signed zone and leaves it in the precise broken state the corresponding
// test subdomain exhibits.

// CorruptSigs flips bytes in the signatures covering (name, t). When tag is
// non-nil only signatures made by that key tag are corrupted. It reports how
// many signatures were touched.
func (z *Zone) CorruptSigs(name dnswire.Name, t dnswire.Type, tag *uint16) int {
	k := rrKey{name, t}
	n := 0
	for i, rr := range z.sigs[k] {
		sig := rr.Data.(dnswire.RRSIG)
		if tag != nil && sig.KeyTag != *tag {
			continue
		}
		sig.Signature = append([]byte(nil), sig.Signature...)
		for j := 0; j < len(sig.Signature); j += 7 {
			sig.Signature[j] ^= 0x5A
		}
		rr.Data = sig
		z.sigs[k][i] = rr
		n++
	}
	return n
}

// RemoveSigsByTag deletes signatures covering (name, t) made by key tag.
func (z *Zone) RemoveSigsByTag(name dnswire.Name, t dnswire.Type, tag uint16) int {
	k := rrKey{name, t}
	kept := z.sigs[k][:0]
	n := 0
	for _, rr := range z.sigs[k] {
		if rr.Data.(dnswire.RRSIG).KeyTag == tag {
			n++
			continue
		}
		kept = append(kept, rr)
	}
	if len(kept) == 0 {
		delete(z.sigs, k)
	} else {
		z.sigs[k] = kept
	}
	return n
}

// RemoveAllSigs strips every RRSIG in the zone (Table 3: rrsig-no-all).
func (z *Zone) RemoveAllSigs() {
	z.sigs = make(map[rrKey][]dnswire.RR)
}

// ResignAllWithWindow re-signs every authoritative RRset using the given
// validity window (Table 3: rrsig-exp-all, rrsig-not-yet-all,
// rrsig-exp-before-all).
func (z *Zone) ResignAllWithWindow(inception, expiration uint32) error {
	z.Inception, z.Expiration = inception, expiration
	return z.resignAll()
}

// MutateDNSKey rewrites published DNSKEYs matched by sel and re-signs the
// DNSKEY RRset with the given keys (pass the zone's real keys to model a
// server that re-signed after the change, or none to leave stale
// signatures).
func (z *Zone) MutateDNSKey(sel func(dnswire.DNSKEY) bool, fn func(*dnswire.DNSKEY), resignWith ...*dnssec.KeyPair) (int, error) {
	set := z.RRset(z.Origin, dnswire.TypeDNSKEY)
	n := 0
	out := make([]dnswire.RR, 0, len(set))
	for _, rr := range set {
		key := rr.Data.(dnswire.DNSKEY)
		if sel(key) {
			key.PublicKey = append([]byte(nil), key.PublicKey...)
			fn(&key)
			rr.Data = key
			n++
		}
		out = append(out, rr)
	}
	z.SetRRset(z.Origin, dnswire.TypeDNSKEY, out)
	if len(resignWith) > 0 {
		if err := z.ResignRRset(z.Origin, dnswire.TypeDNSKEY, z.Inception, z.Expiration, resignWith...); err != nil {
			return n, err
		}
	}
	return n, nil
}

// RemoveDNSKey deletes published DNSKEYs matched by sel and re-signs the
// remaining set with the given keys.
func (z *Zone) RemoveDNSKey(sel func(dnswire.DNSKEY) bool, resignWith ...*dnssec.KeyPair) (int, error) {
	set := z.RRset(z.Origin, dnswire.TypeDNSKEY)
	out := make([]dnswire.RR, 0, len(set))
	n := 0
	for _, rr := range set {
		if sel(rr.Data.(dnswire.DNSKEY)) {
			n++
			continue
		}
		out = append(out, rr)
	}
	z.SetRRset(z.Origin, dnswire.TypeDNSKEY, out)
	if len(resignWith) > 0 {
		if err := z.ResignRRset(z.Origin, dnswire.TypeDNSKEY, z.Inception, z.Expiration, resignWith...); err != nil {
			return n, err
		}
	}
	return n, nil
}

// SelKSK / SelZSK select published keys by their SEP flag.
func SelKSK(k dnswire.DNSKEY) bool { return k.IsSEP() }

// SelZSK selects zone keys without the SEP flag.
func SelZSK(k dnswire.DNSKEY) bool { return k.IsZoneKey() && !k.IsSEP() }

// GarbleNSEC3Owners rewrites every NSEC3 owner hash to an unrelated value
// and re-signs the records, modelling bad-nsec3-hash: the records are
// cryptographically valid but prove nothing.
func (z *Zone) GarbleNSEC3Owners() error {
	return z.rewriteNSEC3(func(i int, e *nsec3Entry, rec *dnswire.NSEC3) {
		e.hash = garbleHash(e.hash, uint32(i))
		e.owner = z.Origin.Child(dnswire.Base32HexNoPad(e.hash))
	})
}

// GarbleNSEC3Next rewrites every NSEC3 next-hash to a value immediately
// after the owner hash, so no record covers anything (bad-nsec3-next).
func (z *Zone) GarbleNSEC3Next() error {
	return z.rewriteNSEC3(func(i int, e *nsec3Entry, rec *dnswire.NSEC3) {
		next := append([]byte(nil), e.hash...)
		next[len(next)-1]++
		rec.NextHashed = next
	})
}

// SetNSEC3Salt rewrites the salt field of the served NSEC3PARAM and of every
// NSEC3 record without recomputing owner hashes (bad-nsec3param-salt): the
// published parameters no longer reproduce the chain's hashes, and
// validators see inconsistent salt across the denial records they receive.
func (z *Zone) SetNSEC3Salt(salt []byte) error {
	z.NSEC3Params.Salt = salt
	z.SetRRset(z.Origin, dnswire.TypeNSEC3PARAM, []dnswire.RR{{
		Name: z.Origin, Class: dnswire.ClassIN, TTL: z.DefaultTTL, Data: z.NSEC3Params,
	}})
	if err := z.ResignRRset(z.Origin, dnswire.TypeNSEC3PARAM, z.Inception, z.Expiration, z.ZSKs[0]); err != nil {
		return err
	}
	// Rewrite the salt on every other NSEC3 record in the chain, leaving the
	// first one intact so responses mix two salts — the inconsistency a
	// validator can observe.
	first := true
	return z.rewriteNSEC3(func(i int, e *nsec3Entry, rec *dnswire.NSEC3) {
		if first {
			first = false
			return
		}
		rec.Salt = append([]byte(nil), salt...)
	})
}

// rewriteNSEC3 applies fn to each chain entry and its record, then rewrites
// and re-signs the NSEC3 RRsets.
func (z *Zone) rewriteNSEC3(fn func(i int, e *nsec3Entry, rec *dnswire.NSEC3)) error {
	if len(z.ZSKs) == 0 {
		return fmt.Errorf("zone %s: not signed", z.Origin)
	}
	type pending struct {
		entry nsec3Entry
		rec   dnswire.NSEC3
	}
	out := make([]pending, 0, len(z.nsec3Chain))
	for i, e := range z.nsec3Chain {
		set := z.RRset(e.owner, dnswire.TypeNSEC3)
		if len(set) == 0 {
			continue
		}
		rec := set[0].Data.(dnswire.NSEC3)
		rec.Salt = append([]byte(nil), rec.Salt...)
		rec.NextHashed = append([]byte(nil), rec.NextHashed...)
		z.RemoveRRset(e.owner, dnswire.TypeNSEC3)
		fn(i, &e, &rec)
		out = append(out, pending{entry: e, rec: rec})
	}
	z.nsec3Chain = z.nsec3Chain[:0]
	for _, p := range out {
		z.nsec3Chain = append(z.nsec3Chain, p.entry)
		z.SetRRset(p.entry.owner, dnswire.TypeNSEC3, []dnswire.RR{{
			Name: p.entry.owner, Class: dnswire.ClassIN, TTL: z.DefaultTTL, Data: p.rec,
		}})
		if err := z.ResignRRset(p.entry.owner, dnswire.TypeNSEC3, z.Inception, z.Expiration, z.ZSKs[0]); err != nil {
			return err
		}
	}
	sortEntries(z.nsec3Chain)
	return nil
}

// CorruptNSEC3Sigs corrupts the RRSIGs over every NSEC3 record
// (bad-nsec3-rrsig).
func (z *Zone) CorruptNSEC3Sigs() int {
	n := 0
	for _, e := range z.nsec3Chain {
		n += z.CorruptSigs(e.owner, dnswire.TypeNSEC3, nil)
	}
	return n
}

// RemoveNSEC3Sigs strips the RRSIGs over every NSEC3 record
// (nsec3-rrsig-missing).
func (z *Zone) RemoveNSEC3Sigs() {
	for _, e := range z.nsec3Chain {
		z.RemoveSigs(e.owner, dnswire.TypeNSEC3)
	}
}

// RemoveNSEC3Records deletes the NSEC3 RRsets; with DenialMode left at
// DenialOmitNSEC3 the server then serves signed negatives without proof
// (nsec3-missing).
func (z *Zone) RemoveNSEC3Records() {
	for _, e := range z.nsec3Chain {
		z.RemoveRRset(e.owner, dnswire.TypeNSEC3)
	}
	z.nsec3Chain = nil
}

// RemoveNSEC3PARAM deletes the NSEC3PARAM record (nsec3param-missing /
// no-nsec3param-nsec3); callers set the matching DenialMode.
func (z *Zone) RemoveNSEC3PARAM() {
	z.RemoveRRset(z.Origin, dnswire.TypeNSEC3PARAM)
}

// garbleHash derives an unrelated hash of the same length.
func garbleHash(h []byte, seed uint32) []byte {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], seed^0xDEADBEEF)
	sum := sha256.Sum256(append(buf[:], h...))
	out := make([]byte, len(h))
	copy(out, sum[:])
	return out
}
