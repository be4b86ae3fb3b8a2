package dnssec

import (
	"fmt"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// SigStatus classifies the outcome of validating one RRset against a set of
// candidate DNSKEYs. The order encodes reporting priority: when several
// signatures fail differently, the most specific diagnosis wins.
type SigStatus int

// RRset validation outcomes.
const (
	SigOK SigStatus = iota
	// SigMissing: no RRSIG covering the set was present at all.
	SigMissing
	// SigNoMatchingKey: RRSIGs exist but none references a usable DNSKEY
	// (key tag + algorithm + zone-key bit).
	SigNoMatchingKey
	// SigUnsupportedAlg: the only matching signatures use algorithms the
	// validator does not implement (treat as insecure per RFC 4035 §5.2).
	SigUnsupportedAlg
	// SigExpiredBeforeValid: expiration precedes inception (EDE 25 material).
	SigExpiredBeforeValid
	// SigExpired: all usable signatures have expired.
	SigExpired
	// SigNotYetValid: all usable signatures have inception in the future.
	SigNotYetValid
	// SigCryptoFailed: a matching, temporally valid signature failed
	// cryptographic verification.
	SigCryptoFailed
)

var sigStatusNames = map[SigStatus]string{
	SigOK:                 "ok",
	SigMissing:            "rrsig-missing",
	SigNoMatchingKey:      "no-matching-key",
	SigUnsupportedAlg:     "unsupported-algorithm",
	SigExpiredBeforeValid: "expired-before-valid",
	SigExpired:            "expired",
	SigNotYetValid:        "not-yet-valid",
	SigCryptoFailed:       "crypto-failed",
}

func (s SigStatus) String() string {
	if n, ok := sigStatusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("SigStatus(%d)", int(s))
}

// RRsetCheck is the result of CheckRRset.
type RRsetCheck struct {
	Status SigStatus
	// VerifiedBy is the key tag of the DNSKEY that produced a valid
	// signature when Status is SigOK.
	VerifiedBy uint16
	// VerifiedSEP reports whether the verifying key has the SEP flag.
	VerifiedSEP bool
	// Wildcard reports that the verified signature's labels field is
	// smaller than the owner's label count: the answer was synthesized
	// from a wildcard and needs an accompanying denial proof for the
	// exact name (RFC 4035 §5.3.4).
	Wildcard bool
	// UnsupportedAlgs lists signature algorithms that were skipped as
	// unsupported, for EXTRA-TEXT reporting.
	UnsupportedAlgs []Algorithm
	// Expiration/Inception of the most relevant failing signature, for
	// EXTRA-TEXT reporting ("signature expired at ...").
	Expiration, Inception uint32
}

// TimeStatus classifies an RRSIG validity window at instant now, using
// RFC 1982 serial-number arithmetic on the 32-bit timestamps.
func TimeStatus(sig dnswire.RRSIG, now uint32) SigStatus {
	if serialLT(sig.Expiration, sig.Inception) {
		return SigExpiredBeforeValid
	}
	if serialLT(sig.Expiration, now) {
		return SigExpired
	}
	if serialLT(now, sig.Inception) {
		return SigNotYetValid
	}
	return SigOK
}

// serialLT reports a < b in RFC 1982 serial arithmetic with SERIAL_BITS=32.
func serialLT(a, b uint32) bool {
	return (a < b && b-a < 1<<31) || (a > b && a-b > 1<<31)
}

// CheckRRset validates the records in rrs (one RRset) against the RRSIGs in
// sigs using the candidate keys. now is the validation instant in epoch
// seconds; sup filters which algorithms are even attempted.
//
// keys should be the zone's DNSKEY RRset; keys without the zone-key bit are
// ignored per RFC 4034 §2.1.1.
func CheckRRset(rrs []dnswire.RR, sigs []dnswire.RR, keys []dnswire.DNSKEY, now uint32, sup SupportSet) RRsetCheck {
	return (*VerifyMemo)(nil).CheckRRset(rrs, sigs, keys, now, sup)
}

// CheckRRset is the package-level CheckRRset with the cryptographic step
// behind the memo. Everything else — which keys are candidates, algorithm
// support, the validity window at now — is decided afresh on every call.
func (m *VerifyMemo) CheckRRset(rrs []dnswire.RR, sigs []dnswire.RR, keys []dnswire.DNSKEY, now uint32, sup SupportSet) RRsetCheck {
	if len(rrs) == 0 {
		return RRsetCheck{Status: SigMissing}
	}
	covered := rrs[0].Type()
	owner := rrs[0].Name

	// Track the best (highest-priority) failure seen across signatures.
	// The fallback diagnosis, when no signature references a usable key at
	// all, is SigNoMatchingKey; any diagnosis derived from a signature whose
	// key was found outranks the fallback.
	worst := RRsetCheck{Status: SigNoMatchingKey}
	haveMatchDiag := false
	record := func(c RRsetCheck) {
		if !haveMatchDiag || betterDiagnosis(c.Status, worst.Status) {
			worst = c
			haveMatchDiag = true
		}
	}

	covering := false
	for _, rr := range sigs {
		sig, ok := rr.Data.(dnswire.RRSIG)
		if !ok || sig.TypeCovered != covered || rr.Name != owner {
			continue
		}
		covering = true
		alg := Algorithm(sig.Algorithm)
		matched := false
		// Key tags are not unique (RFC 4034 appendix B), so every zone key
		// with the signature's tag and algorithm is a candidate until one
		// verifies (RFC 4035 §5.3.1).
		for i := range keys {
			key := &keys[i]
			if !key.IsZoneKey() || key.KeyTag() != sig.KeyTag || key.Algorithm != sig.Algorithm {
				continue
			}
			matched = true
			if !sup.Supports(alg) || sup.RSATooShort(*key) {
				record(RRsetCheck{Status: SigUnsupportedAlg, UnsupportedAlgs: []Algorithm{alg},
					Expiration: sig.Expiration, Inception: sig.Inception})
				continue
			}
			if ts := TimeStatus(sig, now); ts != SigOK {
				record(RRsetCheck{Status: ts, Expiration: sig.Expiration, Inception: sig.Inception})
				continue
			}
			if err := m.verifyRRSIG(sig, rrs, *key); err != nil {
				record(RRsetCheck{Status: SigCryptoFailed, Expiration: sig.Expiration, Inception: sig.Inception})
				continue
			}
			return RRsetCheck{Status: SigOK, VerifiedBy: sig.KeyTag, VerifiedSEP: key.IsSEP(),
				Wildcard:   int(sig.Labels) < rrs[0].Name.LabelCount(),
				Expiration: sig.Expiration, Inception: sig.Inception}
		}
		if !matched && !haveMatchDiag {
			worst.Expiration, worst.Inception = sig.Expiration, sig.Inception
		}
	}
	if !covering {
		return RRsetCheck{Status: SigMissing}
	}
	return worst
}

// betterDiagnosis reports whether a is a more specific diagnosis than b.
// Temporal failures outrank crypto failures, which outrank unsupported, so
// that e.g. an expired-but-otherwise-correct signature reports "expired"
// even when another signature fails verification outright.
func betterDiagnosis(a, b SigStatus) bool {
	rank := func(s SigStatus) int {
		switch s {
		case SigExpiredBeforeValid:
			return 6
		case SigExpired, SigNotYetValid:
			return 5
		case SigCryptoFailed:
			return 4
		case SigNoMatchingKey:
			return 3
		case SigUnsupportedAlg:
			return 2
		case SigMissing:
			return 1
		}
		return 0
	}
	return rank(a) > rank(b)
}

// RSATooShort reports whether key is an RSA key below the validator's size
// floor. The algorithm decides whether the key material is read as RSA at
// all: any 32-byte Ed25519 or GOST key whose first octet is 1–4 also parses
// as a (tiny) RSA modulus.
func (s SupportSet) RSATooShort(key dnswire.DNSKEY) bool {
	if s.MinRSABits == 0 {
		return false
	}
	switch Algorithm(key.Algorithm) {
	case AlgRSASHA1, AlgRSASHA1NSEC3SHA1, AlgRSASHA256, AlgRSASHA512:
		bits := RSAKeyBits(key.PublicKey)
		return bits > 0 && bits < s.MinRSABits
	}
	return false
}

// DSMatch describes how a parent DS RRset relates to a child DNSKEY RRset.
type DSMatch struct {
	// TagMatch: some DS (tag, algorithm) pair matches a zone-key DNSKEY.
	TagMatch bool
	// DigestMatch: some DS fully matches (tag, algorithm, digest).
	DigestMatch bool
	// MatchedKey is a key that fully matched, when DigestMatch.
	MatchedKey *dnswire.DNSKEY
	// UnknownAlgs lists DS algorithm numbers not assigned by IANA.
	UnknownAlgs []Algorithm
	// UnsupportedDigests lists DS digest types the validator cannot compute.
	UnsupportedDigests []DigestType
	// AllUnknownAlg / AllUnsupportedDigest: every DS record is affected.
	AllUnknownAlg        bool
	AllUnsupportedDigest bool
}

// MatchDS evaluates every DS against the child's DNSKEY RRset.
func MatchDS(owner dnswire.Name, dsSet []dnswire.DS, keys []dnswire.DNSKEY, sup SupportSet) DSMatch {
	var m DSMatch
	if len(dsSet) == 0 {
		return m
	}
	m.AllUnknownAlg = true
	m.AllUnsupportedDigest = true
	for _, ds := range dsSet {
		alg := Algorithm(ds.Algorithm)
		dt := DigestType(ds.DigestType)
		if !alg.IsAssigned() {
			m.UnknownAlgs = append(m.UnknownAlgs, alg)
		} else {
			m.AllUnknownAlg = false
		}
		if !sup.SupportsDigest(dt) {
			m.UnsupportedDigests = append(m.UnsupportedDigests, dt)
		} else {
			m.AllUnsupportedDigest = false
		}
		for i := range keys {
			k := &keys[i]
			if !k.IsZoneKey() {
				continue
			}
			if k.KeyTag() == ds.KeyTag && k.Algorithm == ds.Algorithm {
				m.TagMatch = true
				if sup.SupportsDigest(dt) && MatchesDS(owner, *k, ds) {
					m.DigestMatch = true
					m.MatchedKey = k
				}
			}
		}
	}
	return m
}

// KeyInventory summarizes the shape of a DNSKEY RRset; the resolver uses it
// to tell apart the paper's DNSKEY misconfiguration cases (Table 3 group 5).
type KeyInventory struct {
	Total       int
	ZoneKeys    int // keys with the zone-key bit set
	SEPKeys     int // zone keys with the SEP bit (KSK convention)
	NonSEPKeys  int // zone keys without SEP (ZSK convention)
	NonZoneKeys int // keys with the zone-key bit cleared (ignored by validators)
	// UnsupportedAlgKeys counts zone keys whose algorithm the validator
	// does not implement; Algs collects their algorithm numbers.
	UnsupportedAlgKeys int
	UnsupportedAlgs    []Algorithm
	// UnassignedAlgKeys counts zone keys with algorithm numbers that are
	// not assigned at all.
	UnassignedAlgKeys int
}

// Inventory inspects a DNSKEY RRset.
func Inventory(keys []dnswire.DNSKEY, sup SupportSet) KeyInventory {
	var inv KeyInventory
	inv.Total = len(keys)
	for _, k := range keys {
		if !k.IsZoneKey() {
			inv.NonZoneKeys++
			continue
		}
		inv.ZoneKeys++
		if k.IsSEP() {
			inv.SEPKeys++
		} else {
			inv.NonSEPKeys++
		}
		alg := Algorithm(k.Algorithm)
		if !alg.IsAssigned() {
			inv.UnassignedAlgKeys++
		}
		if !sup.Supports(alg) {
			inv.UnsupportedAlgKeys++
			inv.UnsupportedAlgs = append(inv.UnsupportedAlgs, alg)
		}
	}
	return inv
}
