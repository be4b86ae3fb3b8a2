// Package dnssec implements DNSSEC (RFC 4033–4035, RFC 5155) from scratch on
// top of the dnswire codec: key generation, key tags, DS digests, RRset
// signing, signature verification, NSEC3 hashing, and a chain validator that
// reports fine-grained failure reasons. Those reasons are the raw material
// the resolver's vendor profiles turn into Extended DNS Errors.
//
// Algorithms backed by real cryptography: RSA/SHA-1, RSASHA1-NSEC3-SHA1,
// RSA/SHA-256, RSA/SHA-512, ECDSA P-256, ECDSA P-384, Ed25519.
//
// Algorithms backed by deterministic stand-ins (documented substitution, see
// DESIGN.md §2): RSA/MD5, DSA, DSA-NSEC3-SHA1, ECC-GOST, Ed448, and the
// unassigned/reserved numbers used by the paper's testbed. The paper measures
// *support classification*, not cryptographic strength; the stand-ins verify
// for validators configured to support them and classify as unsupported
// everywhere else, which is the observable behaviour under study.
package dnssec

import "fmt"

// Algorithm is a DNSSEC algorithm number (IANA dns-sec-alg-numbers).
type Algorithm uint8

// DNSSEC algorithm numbers.
const (
	AlgRSAMD5           Algorithm = 1
	AlgDSA              Algorithm = 3
	AlgRSASHA1          Algorithm = 5
	AlgDSANSEC3SHA1     Algorithm = 6
	AlgRSASHA1NSEC3SHA1 Algorithm = 7
	AlgRSASHA256        Algorithm = 8
	AlgRSASHA512        Algorithm = 10
	AlgECCGOST          Algorithm = 12
	AlgECDSAP256SHA256  Algorithm = 13
	AlgECDSAP384SHA384  Algorithm = 14
	AlgED25519          Algorithm = 15
	AlgED448            Algorithm = 16
	// AlgUnassigned is an unassigned algorithm number the testbed uses
	// (Table 3: unassigned-zsk-algo, ds-unassigned-key-algo).
	AlgUnassigned Algorithm = 100
	// AlgReserved is a reserved algorithm number the testbed uses
	// (Table 3: reserved-zsk-algo, ds-reserved-key-algo).
	AlgReserved Algorithm = 200
)

var algNames = map[Algorithm]string{
	AlgRSAMD5:           "RSAMD5",
	AlgDSA:              "DSA",
	AlgRSASHA1:          "RSASHA1",
	AlgDSANSEC3SHA1:     "DSA-NSEC3-SHA1",
	AlgRSASHA1NSEC3SHA1: "RSASHA1-NSEC3-SHA1",
	AlgRSASHA256:        "RSASHA256",
	AlgRSASHA512:        "RSASHA512",
	AlgECCGOST:          "ECC-GOST",
	AlgECDSAP256SHA256:  "ECDSAP256SHA256",
	AlgECDSAP384SHA384:  "ECDSAP384SHA384",
	AlgED25519:          "ED25519",
	AlgED448:            "ED448",
}

func (a Algorithm) String() string {
	if s, ok := algNames[a]; ok {
		return s
	}
	return fmt.Sprintf("ALG%d", uint8(a))
}

// IsAssigned reports whether a is an assigned signing algorithm in the IANA
// registry (as of the paper's measurement period).
func (a Algorithm) IsAssigned() bool {
	_, ok := algNames[a]
	return ok
}

// DigestType is a DS digest algorithm number (IANA ds-rr-types).
type DigestType uint8

// DS digest types.
const (
	DigestSHA1   DigestType = 1
	DigestSHA256 DigestType = 2
	DigestGOST   DigestType = 3
	DigestSHA384 DigestType = 4
	// DigestUnassigned is the unassigned digest number observed in the wild
	// scan (§4.2 item 10: "an unassigned digest algorithm type (8)").
	DigestUnassigned DigestType = 8
)

func (d DigestType) String() string {
	switch d {
	case DigestSHA1:
		return "SHA-1"
	case DigestSHA256:
		return "SHA-256"
	case DigestGOST:
		return "GOST R 34.11-94"
	case DigestSHA384:
		return "SHA-384"
	}
	return fmt.Sprintf("DIGEST%d", uint8(d))
}

// SupportSet describes which algorithms and digests a validator implements.
// Real resolvers differ here: e.g. Cloudflare (May 2023) did not support
// Ed448 or GOST, while the open-source engines validate Ed448 (§3.3).
type SupportSet struct {
	Algorithms map[Algorithm]bool
	Digests    map[DigestType]bool
	// MinRSABits, when non-zero, marks RSA keys shorter than this as
	// unsupported ("unsupported key size", §4.2 item 7 — Cloudflare rejects
	// 512-bit keys even though RFC 2537/5702 allow them).
	MinRSABits int
}

// Supports reports whether algorithm a is validated by this support set.
func (s SupportSet) Supports(a Algorithm) bool { return s.Algorithms[a] }

// SupportsDigest reports whether DS digest d is validated.
func (s SupportSet) SupportsDigest(d DigestType) bool { return s.Digests[d] }

// StandardSupport returns the support set of a modern open-source validator:
// every assigned signing algorithm except the ones RFC 8624 forbids
// validating (RSA/MD5) or discourages (DSA), plus Ed448 and GOST stand-ins.
func StandardSupport() SupportSet {
	return SupportSet{
		Algorithms: map[Algorithm]bool{
			AlgRSASHA1:          true,
			AlgRSASHA1NSEC3SHA1: true,
			AlgRSASHA256:        true,
			AlgRSASHA512:        true,
			AlgECDSAP256SHA256:  true,
			AlgECDSAP384SHA384:  true,
			AlgED25519:          true,
			AlgED448:            true,
		},
		Digests: map[DigestType]bool{
			DigestSHA1:   true,
			DigestSHA256: true,
			DigestSHA384: true,
		},
	}
}

// CloudflareSupport returns Cloudflare DNS's support set as measured by the
// paper: no Ed448, no GOST (algorithm or digest), and a 1024-bit RSA floor.
func CloudflareSupport() SupportSet {
	s := StandardSupport()
	s.Algorithms[AlgED448] = false
	s.MinRSABits = 1024
	return s
}
