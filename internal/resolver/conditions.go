// Package resolver implements a validating iterative DNS resolver over the
// netsim transport, with RFC 8914 Extended DNS Error reporting through
// vendor behaviour profiles.
//
// The resolver performs real resolution — root hints, referral chasing,
// glue, out-of-bailiwick nameserver lookups, RRset caching with serve-stale,
// and full DNSSEC chain validation — and reduces each failure to a
// fine-grained Condition. Conditions are facts about what was observed on
// the wire. One table, conditionTable, holds a row per condition — its name,
// its class and the EDE codes each of seven vendor profiles (profiles.go)
// reports for it — reproducing how BIND, Unbound, PowerDNS Recursor, Knot
// Resolver, Cloudflare DNS, Quad9, and OpenDNS reported each of the paper's
// 63 test cases (Table 4) as of May 2023.
package resolver

import (
	"fmt"

	"github.com/extended-dns-errors/edelab/internal/ede"
)

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

// cols holds one condition's EDE codes under each of the seven tested
// systems, in Table 4's column order (AllProfiles, testbed.Systems): BIND 9,
// Unbound, PowerDNS, Knot, Cloudflare, Quad9, OpenDNS. A nil set is Table
// 4's "None".
type cols [7][]ede.Code

// conditionTable is the paper's Tables 3 and 4 as one table: a row per
// condition with its name, its class and what each tested system reported
// for it. The const comments above name the Table 3 subdomains behind each
// row; a profile's Report reads its own column.
var conditionTable = [numConditions]struct {
	name  string
	class Class
	codes cols
}{
	ConditionOK:                    {"ok", ClassOK, cols{}},
	ConditionInsecure:              {"insecure-delegation", ClassInsecure, cols{}},
	ConditionDSNoMatchingKey:       {"ds-no-matching-key", ClassBogus, cols{nil, {9}, {9}, {6}, {9}, {9}, {6}}},
	ConditionDSUnassignedAlg:       {"ds-unassigned-algorithm", ClassInsecure, cols{nil, nil, nil, {0}, {9}, nil, {6}}},
	ConditionDSReservedAlg:         {"ds-reserved-algorithm", ClassInsecure, cols{nil, nil, nil, {0}, {1}, nil, {6}}},
	ConditionDSUnsupportedDigest:   {"ds-unsupported-digest", ClassInsecure, cols{nil, nil, nil, {0}, {2}, nil, nil}},
	ConditionDSDigestMismatch:      {"ds-digest-mismatch", ClassBogus, cols{nil, {9}, {9}, {6}, {6}, {9}, {6}}},
	ConditionNoZoneBitBoth:         {"no-zone-key-bit", ClassBogus, cols{nil, {9}, {10}, {10}, {9}, {10}, {6}}},
	ConditionNoRRSIGKSK:            {"no-rrsig-by-ksk", ClassBogus, cols{nil, {10}, {9}, {6}, {10}, {9}, {6}}},
	ConditionBadRRSIGKSK:           {"bad-rrsig-by-ksk", ClassBogus, cols{nil, {9}, {6}, {6}, {6}, {6}, {6}}},
	ConditionNoRRSIGDNSKEY:         {"dnskey-unsigned", ClassBogus, cols{nil, {10}, {10}, {10}, {10}, {9}, {6}}},
	ConditionBadRRSIGDNSKEY:        {"dnskey-sigs-invalid", ClassBogus, cols{nil, {9}, {6}, {6}, {6}, {9}, {6}}},
	ConditionSigExpiredAll:         {"signatures-expired-zone", ClassBogus, cols{nil, {7}, {7}, {7}, {7}, {7}, {6}}},
	ConditionSigExpiredAnswer:      {"signature-expired-answer", ClassBogus, cols{nil, {6}, {7}, nil, {7}, {6}, {7}}},
	ConditionSigNotYetAll:          {"signatures-not-yet-valid-zone", ClassBogus, cols{nil, {9}, {8}, {8}, {8}, {9}, {6}}},
	ConditionSigNotYetAnswer:       {"signature-not-yet-valid-answer", ClassBogus, cols{nil, {6}, {8}, nil, {8}, {8}, {8}}},
	ConditionRRSIGMissingAnswer:    {"rrsig-missing-answer", ClassBogus, cols{nil, {10}, {10}, {10}, {10}, {10}, nil}},
	ConditionSigExpBeforeAll:       {"signatures-expired-before-valid-zone", ClassBogus, cols{nil, {9}, {7}, {7}, {10}, {9}, {6}}},
	ConditionSigExpBeforeAnswer:    {"signature-expired-before-valid-answer", ClassBogus, cols{nil, {6}, {7}, nil, {7}, {7}, {7}}},
	ConditionNoZSK:                 {"zsk-missing", ClassBogus, cols{nil, {9}, {6}, {6}, {6}, {9}, {6}}},
	ConditionBadZSK:                {"zsk-mismatch", ClassBogus, cols{nil, {9}, {6}, {6}, {6}, {6}, {6}}},
	ConditionNoZoneBitZSK:          {"zsk-zone-bit-cleared", ClassBogus, cols{nil, {9}, {6}, {6}, {6}, {9}, {6}}},
	ConditionBadZSKAlgo:            {"zsk-algorithm-mismatch", ClassBogus, cols{nil, {9}, {6}, {6}, {6}, {6}, {6}}},
	ConditionUnassignedZSKAlgo:     {"zsk-unassigned-algorithm", ClassBogus, cols{nil, {9}, {6}, {6}, {6}, {9}, {6}}},
	ConditionReservedZSKAlgo:       {"zsk-reserved-algorithm", ClassBogus, cols{nil, {9}, {6}, {6}, {6}, {6}, {6}}},
	ConditionAnswerSigInvalid:      {"answer-signature-invalid", ClassBogus, cols{nil, {6}, {6}, {6}, {6}, {6}, {6}}},
	ConditionAlgUnsupported:        {"algorithm-unsupported", ClassInsecure, cols{nil, nil, nil, nil, {1}, nil, nil}},
	ConditionAlgDeprecated:         {"algorithm-deprecated", ClassInsecure, cols{nil, nil, nil, {0}, {1}, nil, nil}},
	ConditionNSEC3Missing:          {"nsec3-missing", ClassBogus, cols{nil, {12}, nil, {12}, {6}, nil, {12}}},
	ConditionNSEC3BadHash:          {"nsec3-no-closest-encloser", ClassBogus, cols{nil, {6}, nil, {6}, {6}, {6}, {12}}},
	ConditionNSEC3BadNext:          {"nsec3-next-not-covering", ClassBogus, cols{nil, {6}, nil, {6}, {6}, {6}, {6}}},
	ConditionNSEC3BadRRSIG:         {"nsec3-signature-invalid", ClassBogus, cols{nil, {6}, nil, {6}, {6}, nil, {6}}},
	ConditionNSEC3RRSIGMissing:     {"nsec3-unsigned", ClassBogus, cols{nil, {12}, nil, {10}, {6}, {9}, {12}}},
	ConditionNSEC3ParamMismatch:    {"nsec3-parameter-mismatch", ClassBogus, cols{nil, {12}, nil, {12}, {6}, {9}, {12}}},
	ConditionDenialUnsignedSOA:     {"denial-unsigned-soa", ClassBogus, cols{nil, {10}, {10}, {10}, {10}, {9}, {6}}},
	ConditionDenialBare:            {"denial-empty", ClassBogus, cols{nil, {10}, {10}, {10}, {10}, {10}, {6}}},
	ConditionNSEC3IterTooHigh:      {"nsec3-iterations-too-high", ClassInsecure, cols{}},
	ConditionUnreachableAllTimeout: {"authorities-timeout", ClassLame, cols{nil, nil, nil, nil, {22}, nil, nil}},
	ConditionUnreachableRefused:    {"authorities-refused", ClassLame, cols{nil, nil, nil, nil, {22, 23}, nil, {18}}},
	ConditionUnreachableServfail:   {"authorities-servfail", ClassLame, cols{nil, nil, nil, nil, {22, 23}, nil, nil}},
	ConditionNotAuthAll:            {"authorities-notauth", ClassLame, cols{nil, nil, nil, nil, {13}, nil, nil}},
	ConditionDNSKEYUnobtainable:    {"dnskey-unobtainable", ClassLame, cols{nil, nil, nil, nil, {9}, nil, nil}},
	ConditionUpstreamError:         {"upstream-error-advisory", ClassAdvisory, cols{nil, nil, nil, nil, {23}, nil, nil}},
	ConditionNetworkError:          {"network-error", ClassLame, cols{nil, nil, nil, nil, {23}, nil, nil}},
	ConditionCancelled:             {"cancelled", ClassLame, cols{}},
	ConditionStaleServed:           {"stale-answer-served", ClassDegraded, cols{{3}, nil, nil, nil, {3}, nil, nil}},
	ConditionStaleNXServed:         {"stale-nxdomain-served", ClassDegraded, cols{{19}, nil, nil, nil, {19}, nil, nil}},
	ConditionCachedError:           {"cached-error-served", ClassLame, cols{nil, nil, nil, nil, {13}, nil, nil}},
	ConditionInvalidData:           {"invalid-upstream-data", ClassLame, cols{nil, nil, nil, nil, {24}, nil, nil}},
	ConditionIterationLimit:        {"iteration-limit", ClassLame, cols{nil, nil, nil, nil, {0}, nil, nil}},
	ConditionReferralProofMissing:  {"referral-proof-missing", ClassBogus, cols{nil, nil, nil, nil, {12}, nil, nil}},
	ConditionReferralProofBogus:    {"referral-proof-bogus", ClassBogus, cols{nil, nil, nil, nil, {6}, nil, nil}},
	ConditionStandbyKSKUnsigned:    {"standby-ksk-unsigned", ClassAdvisory, cols{nil, nil, nil, nil, {10}, nil, nil}},
}

func (c Condition) String() string {
	if c >= 0 && c < numConditions {
		return conditionTable[c].name
	}
	return fmt.Sprintf("Condition(%d)", int(c))
}

// ClassOf buckets a condition.
func ClassOf(c Condition) Class { return conditionTable[c].class }
