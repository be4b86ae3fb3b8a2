package zone

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/fanout"
)

// SignOptions configures Zone.Sign.
type SignOptions struct {
	// Algorithm used for both KSK and ZSK.
	Algorithm dnssec.Algorithm
	// RSABits selects the RSA modulus size (default 1024).
	RSABits int
	// Validity window (epoch seconds).
	Inception, Expiration uint32
	// NSEC3Iterations is the NSEC3 hash iteration count of the (unsalted)
	// NSEC3 chain.
	NSEC3Iterations uint16
	// DenialNSEC selects plain NSEC (RFC 4034) denial instead of NSEC3.
	DenialNSEC bool
	// Keys may be pre-generated (reused across zones for speed); when nil
	// they are generated.
	KSK, ZSK *dnssec.KeyPair
}

// Sign generates keys, the DNSKEY RRset, RRSIGs over every authoritative
// RRset, the NSEC3 chain, and the NSEC3PARAM record. The DNSKEY RRset is
// signed by both the KSK and the ZSK (as the paper's testbed assumes: the
// no-rrsig-ksk case removes only the KSK's signature and leaves the ZSK's).
func (z *Zone) Sign(opts SignOptions) error {
	if opts.Algorithm == 0 {
		opts.Algorithm = dnssec.AlgECDSAP256SHA256
	}

	ksk, zsk := opts.KSK, opts.ZSK
	var err error
	if ksk == nil {
		if ksk, err = dnssec.GenerateKey(opts.Algorithm, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, opts.RSABits); err != nil {
			return fmt.Errorf("zone %s: KSK: %w", z.Origin, err)
		}
	}
	if zsk == nil {
		if zsk, err = dnssec.GenerateKey(opts.Algorithm, dnswire.DNSKEYFlagZone, opts.RSABits); err != nil {
			return fmt.Errorf("zone %s: ZSK: %w", z.Origin, err)
		}
	}
	z.KSKs = []*dnssec.KeyPair{ksk}
	z.ZSKs = []*dnssec.KeyPair{zsk}
	z.Inception, z.Expiration = opts.Inception, opts.Expiration

	// Publish DNSKEYs.
	z.SetRRset(z.Origin, dnswire.TypeDNSKEY, []dnswire.RR{
		{Name: z.Origin, Class: dnswire.ClassIN, TTL: z.DefaultTTL, Data: ksk.DNSKEY()},
		{Name: z.Origin, Class: dnswire.ClassIN, TTL: z.DefaultTTL, Data: zsk.DNSKEY()},
	})

	// Denial chain: NSEC3 (with NSEC3PARAM at the apex) or plain NSEC.
	z.nsecMode = opts.DenialNSEC
	if opts.DenialNSEC {
		z.buildNSECChain()
	} else {
		z.NSEC3Params = dnswire.NSEC3PARAM{
			HashAlg:    dnssec.NSEC3HashSHA1,
			Iterations: opts.NSEC3Iterations,
		}
		z.SetRRset(z.Origin, dnswire.TypeNSEC3PARAM, []dnswire.RR{{
			Name: z.Origin, Class: dnswire.ClassIN, TTL: z.DefaultTTL, Data: z.NSEC3Params,
		}})
		z.buildNSEC3Chain()
	}

	// Sign every authoritative RRset.
	if err := z.resignAll(); err != nil {
		return err
	}
	z.signed = true
	return nil
}

// buildNSEC3Chain hashes every authoritative owner name (plus delegation
// points) and links the chain (RFC 5155 §7.1): one sort by hash, after which
// each owner's successor is the next position.
func (z *Zone) buildNSEC3Chain() {
	// Remove any previous chain.
	for _, e := range z.nsec3Chain {
		z.RemoveRRset(e.owner, dnswire.TypeNSEC3)
	}
	z.nsec3Chain = nil

	// Collect types per authoritative name (and delegation points).
	typesAt := make(map[dnswire.Name][]dnswire.Type)
	for k := range z.rrsets {
		cut, below := z.delegationAbove(k.name)
		if below && k.name != cut {
			continue // glue: not in the chain
		}
		if below && k.name == cut {
			// Delegation point: NS and DS appear in the bitmap.
			if k.typ == dnswire.TypeNS || k.typ == dnswire.TypeDS {
				typesAt[k.name] = append(typesAt[k.name], k.typ)
			}
			continue
		}
		typesAt[k.name] = append(typesAt[k.name], k.typ)
	}

	iter, salt := z.NSEC3Params.Iterations, z.NSEC3Params.Salt
	type link struct {
		name  dnswire.Name
		entry nsec3Entry
	}
	links := make([]link, 0, len(typesAt))
	for name := range typesAt {
		h := dnssec.NSEC3Hash(name, iter, salt)
		links = append(links, link{name, nsec3Entry{hash: h, owner: z.Origin.Child(dnswire.Base32HexNoPad(h))}})
	}
	sort.Slice(links, func(i, j int) bool { return bytes.Compare(links[i].entry.hash, links[j].entry.hash) < 0 })

	// Create the NSEC3 records linking the chain.
	z.nsec3Chain = make([]nsec3Entry, len(links))
	for i, l := range links {
		z.nsec3Chain[i] = l.entry
		types := typesAt[l.name]
		if z.Authoritative(l.name) && len(types) > 0 {
			types = append(types, dnswire.TypeRRSIG)
		}
		rec := dnswire.NSEC3{
			HashAlg:    dnssec.NSEC3HashSHA1,
			Iterations: iter,
			Salt:       salt,
			NextHashed: links[(i+1)%len(links)].entry.hash,
			Types:      dedupTypes(types),
		}
		z.SetRRset(l.entry.owner, dnswire.TypeNSEC3, []dnswire.RR{{
			Name: l.entry.owner, Class: dnswire.ClassIN, TTL: z.DefaultTTL, Data: rec,
		}})
	}
}

// sortEntries orders a chain by hash; entries with equal hashes keep their
// order.
func sortEntries(entries []nsec3Entry) {
	sort.SliceStable(entries, func(i, j int) bool { return bytes.Compare(entries[i].hash, entries[j].hash) < 0 })
}

// findEntry returns the position of the first entry of a sorted chain whose
// hash is h, or -1.
func findEntry(entries []nsec3Entry, h []byte) int {
	i := sort.Search(len(entries), func(i int) bool { return bytes.Compare(entries[i].hash, h) >= 0 })
	if i == len(entries) || !bytes.Equal(entries[i].hash, h) {
		return -1
	}
	return i
}

func dedupTypes(ts []dnswire.Type) []dnswire.Type {
	seen := make(map[dnswire.Type]bool, len(ts))
	out := ts[:0]
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// resignAll signs every authoritative RRset with the primary ZSK, and the
// DNSKEY RRset additionally with every KSK. The signatures are independent,
// so they are made on every processor (the root of a wild population has
// ~2,950 of them).
func (z *Zone) resignAll() error {
	type job struct {
		k   rrKey
		key *dnssec.KeyPair
	}
	var jobs []job
	for k := range z.rrsets {
		cut, below := z.delegationAbove(k.name)
		if below {
			// Below or at a cut: only DS and NSEC are authoritative and
			// signed (NS and glue are not — RFC 4035 §2.2).
			if k.name != cut || (k.typ != dnswire.TypeDS && k.typ != dnswire.TypeNSEC) {
				continue
			}
		}
		if k.typ == dnswire.TypeDNSKEY {
			jobs = append(jobs, job{k, z.KSKs[0]})
		}
		jobs = append(jobs, job{k, z.ZSKs[0]})
	}
	sigs := make([]dnswire.RR, len(jobs))
	err := fanout.Run(len(jobs), func(i int) (err error) {
		k := jobs[i].k
		if sigs[i], err = dnssec.SignRRset(z.rrsets[k], jobs[i].key, z.Origin, z.Inception, z.Expiration); err != nil {
			return fmt.Errorf("zone %s: sign %s/%s: %w", z.Origin, k.name, k.typ, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	z.sigs = make(map[rrKey][]dnswire.RR, len(jobs))
	for i, j := range jobs {
		z.sigs[j.k] = append(z.sigs[j.k], sigs[i])
	}
	return nil
}

// ResignRRset replaces the signatures over (name, t) with fresh ones from
// the given keys using the window [inception, expiration].
func (z *Zone) ResignRRset(name dnswire.Name, t dnswire.Type, inception, expiration uint32, keys ...*dnssec.KeyPair) error {
	rrs := z.RRset(name, t)
	if len(rrs) == 0 {
		return fmt.Errorf("zone %s: no RRset %s/%s to re-sign", z.Origin, name, t)
	}
	k := rrKey{name, t}
	delete(z.sigs, k)
	for _, key := range keys {
		sig, err := dnssec.SignRRset(rrs, key, z.Origin, inception, expiration)
		if err != nil {
			return err
		}
		z.sigs[k] = append(z.sigs[k], sig)
	}
	return nil
}

// DS derives the zone's DS set (one per KSK, including standby KSKs only
// when includeStandby is set — real parents publish only the active key).
func (z *Zone) DS(dt dnssec.DigestType) ([]dnswire.DS, error) {
	if len(z.KSKs) == 0 {
		return nil, fmt.Errorf("zone %s: not signed", z.Origin)
	}
	ds, err := dnssec.CreateDS(z.Origin, z.KSKs[0].DNSKEY(), dt)
	if err != nil {
		return nil, err
	}
	return []dnswire.DS{ds}, nil
}

// NSEC3ForName returns the NSEC3 record whose owner hash matches name
// exactly, with its signatures.
func (z *Zone) NSEC3ForName(name dnswire.Name) ([]dnswire.RR, []dnswire.RR, bool) {
	h := dnssec.NSEC3Hash(name, z.NSEC3Params.Iterations, z.NSEC3Params.Salt)
	idx := findEntry(z.nsec3Chain, h)
	if idx < 0 {
		return nil, nil, false
	}
	owner := z.nsec3Chain[idx].owner
	return z.RRset(owner, dnswire.TypeNSEC3), z.Sigs(owner, dnswire.TypeNSEC3), true
}

// NSEC3Covering returns the NSEC3 record covering (not matching) name, with
// its signatures.
func (z *Zone) NSEC3Covering(name dnswire.Name) ([]dnswire.RR, []dnswire.RR, bool) {
	if len(z.nsec3Chain) == 0 {
		return nil, nil, false
	}
	h := dnssec.NSEC3Hash(name, z.NSEC3Params.Iterations, z.NSEC3Params.Salt)
	for i, e := range z.nsec3Chain {
		next := z.nsec3Chain[(i+1)%len(z.nsec3Chain)]
		if dnssec.CoversHash(e.hash, next.hash, h) {
			return z.RRset(e.owner, dnswire.TypeNSEC3), z.Sigs(e.owner, dnswire.TypeNSEC3), true
		}
	}
	return nil, nil, false
}
