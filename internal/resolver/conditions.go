// Package resolver implements a validating iterative DNS resolver over the
// netsim transport, with RFC 8914 Extended DNS Error reporting through
// vendor behaviour profiles.
//
// The resolver performs real resolution — root hints, referral chasing,
// glue, out-of-bailiwick nameserver lookups, RRset caching with serve-stale,
// and full DNSSEC chain validation — and reduces each failure to a
// fine-grained Condition. Conditions are facts about what was observed on
// the wire; the vendor profiles (profiles.go) are pure Condition→EDE tables
// reproducing how BIND, Unbound, PowerDNS Recursor, Knot Resolver,
// Cloudflare DNS, Quad9, and OpenDNS reported each of the paper's 63 test
// cases (Table 4) as of May 2023.
package resolver

import "fmt"

// Condition is a fine-grained resolution outcome derived from validation
// and network observations. One resolution may surface several conditions
// (e.g. an ACL-refused signed zone yields both ConditionDNSKEYUnobtainable
// and ConditionUnreachableRefused).
type Condition int

// Conditions. The comments name the Table 3 subdomains (or §4.2 wild
// classes) that produce each condition.
const (
	// ConditionOK: resolution succeeded and, when the chain is signed,
	// validated. (valid, no-ds after insecure proof, nsec3-iter-200)
	ConditionOK Condition = iota
	// ConditionInsecure: a proven unsigned delegation. (unsigned, no-ds)
	ConditionInsecure

	// --- DS / key establishment (Table 3 groups 2 and 5) ---

	// ConditionDSNoMatchingKey: no DNSKEY matches the parent DS by key tag
	// and algorithm. (ds-bad-tag, ds-bad-key-algo, no-ksk, bad-ksk,
	// no-dnskey-257)
	ConditionDSNoMatchingKey
	// ConditionDSUnassignedAlg: every DS carries an unassigned algorithm
	// number; the delegation is treated as insecure. (ds-unassigned-key-algo)
	ConditionDSUnassignedAlg
	// ConditionDSReservedAlg: as above with a reserved number.
	// (ds-reserved-key-algo)
	ConditionDSReservedAlg
	// ConditionDSUnsupportedDigest: every DS uses a digest type the
	// validator cannot compute. (ds-unassigned-digest-algo; wild: GOST)
	ConditionDSUnsupportedDigest
	// ConditionDSDigestMismatch: a DS matches a DNSKEY by tag and algorithm
	// but the digest differs. (ds-bogus-digest-value)
	ConditionDSDigestMismatch
	// ConditionNoZoneBitBoth: the DNSKEY RRset contains no keys with the
	// Zone Key bit at all. (no-dnskey-256-257)
	ConditionNoZoneBitBoth
	// ConditionNoRRSIGKSK: the DNSKEY RRset is signed, but not by the
	// DS-matched key. (no-rrsig-ksk)
	ConditionNoRRSIGKSK
	// ConditionBadRRSIGKSK: the DS-matched key's signature over the DNSKEY
	// RRset fails cryptographically while another signature verifies.
	// (bad-rrsig-ksk)
	ConditionBadRRSIGKSK
	// ConditionNoRRSIGDNSKEY: the DNSKEY RRset carries no signatures.
	// (no-rrsig-dnskey; also rrsig-no-all reaches this stage first)
	ConditionNoRRSIGDNSKEY
	// ConditionBadRRSIGDNSKEY: every signature over the DNSKEY RRset fails
	// cryptographically. (bad-rrsig-dnskey)
	ConditionBadRRSIGDNSKEY

	// --- RRSIG timing and presence (Table 3 group 3) ---

	// ConditionSigExpiredAll: the DNSKEY RRset's signatures (and therefore
	// the whole zone's) have expired. (rrsig-exp-all)
	ConditionSigExpiredAll
	// ConditionSigExpiredAnswer: only the answer RRset's signature has
	// expired. (rrsig-exp-a; wild: Signature Expired)
	ConditionSigExpiredAnswer
	// ConditionSigNotYetAll / ConditionSigNotYetAnswer: inception in the
	// future. (rrsig-not-yet-all, rrsig-not-yet-a)
	ConditionSigNotYetAll
	ConditionSigNotYetAnswer
	// ConditionRRSIGMissingAll: zone-wide RRSIG removal observed at the key
	// establishment stage. (rrsig-no-all)
	ConditionRRSIGMissingAll
	// ConditionRRSIGMissingAnswer: the answer RRset has no covering RRSIG.
	// (rrsig-no-a)
	ConditionRRSIGMissingAnswer
	// ConditionSigExpBeforeAll / ConditionSigExpBeforeAnswer: expiration
	// precedes inception. (rrsig-exp-before-all, rrsig-exp-before-a)
	ConditionSigExpBeforeAll
	ConditionSigExpBeforeAnswer

	// --- Answer-stage key problems (Table 3 group 5) ---

	// ConditionNoZSK: the answer signature references a missing key and the
	// zone publishes no non-SEP zone key. (no-zsk)
	ConditionNoZSK
	// ConditionBadZSK: as above but a non-SEP zone key exists with a
	// different tag. (bad-zsk)
	ConditionBadZSK
	// ConditionNoZoneBitZSK: a published key lost its Zone Key bit and is
	// ignored. (no-dnskey-256)
	ConditionNoZoneBitZSK
	// ConditionBadZSKAlgo: a non-SEP key exists whose algorithm differs
	// from the signature's. (bad-zsk-algo)
	ConditionBadZSKAlgo
	// ConditionUnassignedZSKAlgo / ConditionReservedZSKAlgo: a zone key
	// carries an unassigned/reserved algorithm number.
	// (unassigned-zsk-algo, reserved-zsk-algo)
	ConditionUnassignedZSKAlgo
	ConditionReservedZSKAlgo
	// ConditionAnswerSigInvalid: a temporally valid, key-matched answer
	// signature fails cryptographic verification. (wild: bogus)
	ConditionAnswerSigInvalid

	// --- Unsupported algorithms (Table 3 group 8) ---

	// ConditionAlgUnsupported: the zone's only signing algorithms are
	// assigned but not implemented by this validator; treated as insecure.
	// (ed448 under Cloudflare; wild: GOST, 512-bit RSA)
	ConditionAlgUnsupported
	// ConditionAlgDeprecated: the zone is signed exclusively with
	// algorithms validators must not validate (RSA/MD5, DSA); insecure.
	// (rsamd5, dsa)
	ConditionAlgDeprecated

	// --- Denial of existence (Table 3 group 4) ---

	// ConditionNSEC3Missing: signed negative response without any NSEC3.
	// (nsec3-missing)
	ConditionNSEC3Missing
	// ConditionNSEC3BadHash: NSEC3 records present and signed but no
	// closest-encloser match exists. (bad-nsec3-hash)
	ConditionNSEC3BadHash
	// ConditionNSEC3BadNext: the closest encloser matches but the
	// next-closer name is not covered. (bad-nsec3-next)
	ConditionNSEC3BadNext
	// ConditionNSEC3BadRRSIG: denial records fail signature validation.
	// (bad-nsec3-rrsig)
	ConditionNSEC3BadRRSIG
	// ConditionNSEC3RRSIGMissing: denial records carry no signatures.
	// (nsec3-rrsig-missing)
	ConditionNSEC3RRSIGMissing
	// ConditionNSEC3ParamMismatch: the denial records disagree on NSEC3
	// parameters (salt/iterations), so no usable proof remains.
	// (bad-nsec3param-salt)
	ConditionNSEC3ParamMismatch
	// ConditionDenialUnsignedSOA: negative response whose SOA is unsigned
	// and that carries no NSEC3. (nsec3param-missing)
	ConditionDenialUnsignedSOA
	// ConditionDenialBare: negative response with an empty authority
	// section. (no-nsec3param-nsec3)
	ConditionDenialBare
	// ConditionNSEC3IterTooHigh: iteration count above the validator's
	// refusal threshold. (none of the tested resolvers trip at 200)
	ConditionNSEC3IterTooHigh

	// --- Reachability (Table 3 groups 6–8; §4.2 items 1, 2, 11, 13) ---

	// ConditionUnreachableAllTimeout: every authoritative nameserver timed
	// out (invalid glue, silent lame delegation). (v4-*/v6-* groups)
	ConditionUnreachableAllTimeout
	// ConditionUnreachableRefused: nameservers answered REFUSED.
	// (allow-query-none, allow-query-localhost; wild: 267k nameservers)
	ConditionUnreachableRefused
	// ConditionUnreachableServfail: nameservers answered SERVFAIL.
	ConditionUnreachableServfail
	// ConditionNotAuthAll: nameservers answered NOTAUTH (§4.2 item 13).
	ConditionNotAuthAll
	// ConditionDNSKEYUnobtainable: the zone has a DS but its DNSKEY RRset
	// could not be fetched. (allow-query-*; wild accompaniment of EDE 9)
	ConditionDNSKEYUnobtainable
	// ConditionUpstreamError: some nameserver answered with an
	// unrecoverable error but another one eventually answered — resolution
	// succeeded with a Network Error advisory (§4.2 item 2's EDE-23-only
	// domains).
	ConditionUpstreamError
	// ConditionNetworkError: the network path to every authority failed with
	// an observable error — garbled datagrams rather than pure silence —
	// distinguishing EDE 23 (Network Error) from EDE 22 (No Reachable
	// Authority).
	ConditionNetworkError
	// ConditionCancelled: the client abandoned the query (parent context
	// cancelled or deadline exceeded) before resolution finished. Never
	// cached, never mapped to an EDE.
	ConditionCancelled

	// --- Caching (§4.2 items 11–13) ---

	// ConditionStaleServed: an expired cache entry was served because
	// authorities were unreachable.
	ConditionStaleServed
	// ConditionStaleNXServed: a stale negative answer was served.
	ConditionStaleNXServed
	// ConditionCachedError: a SERVFAIL was served from the error cache.
	ConditionCachedError

	// --- Miscellaneous wild classes (§4.2 items 6, 9, 14, 3) ---

	// ConditionInvalidData: the authoritative response was malformed
	// (mismatched question or missing OPT).
	ConditionInvalidData
	// ConditionIterationLimit: resolution exceeded the work budget
	// (CNAME/referral loops).
	ConditionIterationLimit
	// ConditionReferralProofMissing: a secure parent's referral carried
	// neither DS nor an insecure proof (§4.2 item 9).
	ConditionReferralProofMissing
	// ConditionReferralProofBogus: the insecure-delegation proof was
	// present but invalid (§4.2 item 5's TLD class).
	ConditionReferralProofBogus
	// ConditionStandbyKSKUnsigned: chain valid, but a published SEP key has
	// no covering RRSIG — the stand-by key advisory (§4.2 item 3).
	ConditionStandbyKSKUnsigned

	numConditions // sentinel
)

var conditionNames = map[Condition]string{
	ConditionOK:                    "ok",
	ConditionInsecure:              "insecure-delegation",
	ConditionDSNoMatchingKey:       "ds-no-matching-key",
	ConditionDSUnassignedAlg:       "ds-unassigned-algorithm",
	ConditionDSReservedAlg:         "ds-reserved-algorithm",
	ConditionDSUnsupportedDigest:   "ds-unsupported-digest",
	ConditionDSDigestMismatch:      "ds-digest-mismatch",
	ConditionNoZoneBitBoth:         "no-zone-key-bit",
	ConditionNoRRSIGKSK:            "no-rrsig-by-ksk",
	ConditionBadRRSIGKSK:           "bad-rrsig-by-ksk",
	ConditionNoRRSIGDNSKEY:         "dnskey-unsigned",
	ConditionBadRRSIGDNSKEY:        "dnskey-sigs-invalid",
	ConditionSigExpiredAll:         "signatures-expired-zone",
	ConditionSigExpiredAnswer:      "signature-expired-answer",
	ConditionSigNotYetAll:          "signatures-not-yet-valid-zone",
	ConditionSigNotYetAnswer:       "signature-not-yet-valid-answer",
	ConditionRRSIGMissingAll:       "rrsigs-missing-zone",
	ConditionRRSIGMissingAnswer:    "rrsig-missing-answer",
	ConditionSigExpBeforeAll:       "signatures-expired-before-valid-zone",
	ConditionSigExpBeforeAnswer:    "signature-expired-before-valid-answer",
	ConditionNoZSK:                 "zsk-missing",
	ConditionBadZSK:                "zsk-mismatch",
	ConditionNoZoneBitZSK:          "zsk-zone-bit-cleared",
	ConditionBadZSKAlgo:            "zsk-algorithm-mismatch",
	ConditionUnassignedZSKAlgo:     "zsk-unassigned-algorithm",
	ConditionReservedZSKAlgo:       "zsk-reserved-algorithm",
	ConditionAnswerSigInvalid:      "answer-signature-invalid",
	ConditionAlgUnsupported:        "algorithm-unsupported",
	ConditionAlgDeprecated:         "algorithm-deprecated",
	ConditionNSEC3Missing:          "nsec3-missing",
	ConditionNSEC3BadHash:          "nsec3-no-closest-encloser",
	ConditionNSEC3BadNext:          "nsec3-next-not-covering",
	ConditionNSEC3BadRRSIG:         "nsec3-signature-invalid",
	ConditionNSEC3RRSIGMissing:     "nsec3-unsigned",
	ConditionNSEC3ParamMismatch:    "nsec3-parameter-mismatch",
	ConditionDenialUnsignedSOA:     "denial-unsigned-soa",
	ConditionDenialBare:            "denial-empty",
	ConditionNSEC3IterTooHigh:      "nsec3-iterations-too-high",
	ConditionUnreachableAllTimeout: "authorities-timeout",
	ConditionUnreachableRefused:    "authorities-refused",
	ConditionUnreachableServfail:   "authorities-servfail",
	ConditionNotAuthAll:            "authorities-notauth",
	ConditionDNSKEYUnobtainable:    "dnskey-unobtainable",
	ConditionUpstreamError:         "upstream-error-advisory",
	ConditionNetworkError:          "network-error",
	ConditionCancelled:             "cancelled",
	ConditionStaleServed:           "stale-answer-served",
	ConditionStaleNXServed:         "stale-nxdomain-served",
	ConditionCachedError:           "cached-error-served",
	ConditionInvalidData:           "invalid-upstream-data",
	ConditionIterationLimit:        "iteration-limit",
	ConditionReferralProofMissing:  "referral-proof-missing",
	ConditionReferralProofBogus:    "referral-proof-bogus",
	ConditionStandbyKSKUnsigned:    "standby-ksk-unsigned",
}

func (c Condition) String() string {
	if s, ok := conditionNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Condition(%d)", int(c))
}

// Class buckets conditions by how they affect the final response.
type Class int

// Condition classes, in rising severity: the worst class among a
// resolution's conditions decides its response (worstClass).
const (
	// ClassOK: answer served, validated where applicable.
	ClassOK Class = iota
	// ClassAdvisory: resolution succeeded; the condition is informational.
	ClassAdvisory
	// ClassInsecure: answer served without validation (NOERROR, no AD);
	// an EDE may still accompany it (unsupported algorithms).
	ClassInsecure
	// ClassDegraded: an answer was served from degraded state (stale).
	ClassDegraded
	// ClassBogus: DNSSEC validation failure; fail-closed resolvers answer
	// SERVFAIL.
	ClassBogus
	// ClassLame: no usable authoritative answer; SERVFAIL.
	ClassLame
)

// ClassOf buckets a condition.
func ClassOf(c Condition) Class {
	switch c {
	case ConditionOK:
		return ClassOK
	case ConditionInsecure, ConditionDSUnassignedAlg, ConditionDSReservedAlg,
		ConditionDSUnsupportedDigest, ConditionAlgUnsupported, ConditionAlgDeprecated,
		ConditionNSEC3IterTooHigh:
		return ClassInsecure
	case ConditionUnreachableAllTimeout, ConditionUnreachableRefused,
		ConditionUnreachableServfail, ConditionNotAuthAll,
		ConditionDNSKEYUnobtainable, ConditionInvalidData,
		ConditionIterationLimit, ConditionCachedError,
		ConditionNetworkError, ConditionCancelled:
		return ClassLame
	case ConditionStaleServed, ConditionStaleNXServed:
		return ClassDegraded
	case ConditionStandbyKSKUnsigned, ConditionUpstreamError:
		return ClassAdvisory
	default:
		return ClassBogus
	}
}
