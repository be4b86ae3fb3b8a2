package ede

import (
	"fmt"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// Observation is what a troubleshooting client extracts from one resolver
// response: the classic RCODE plus the attached EDE options.
type Observation struct {
	RCode dnswire.RCode
	EDEs  []dnswire.EDEOption
}

// Observe builds an Observation from a response message.
func Observe(m *dnswire.Message) Observation {
	return Observation{RCode: m.RCode, EDEs: m.EDEs()}
}

// Codes returns the observation's EDE codes as a Set.
func (o Observation) Codes() Set {
	out := make(Set, 0, len(o.EDEs))
	for _, e := range o.EDEs {
		out = append(out, Code(e.InfoCode))
	}
	return out
}

// Severity of a diagnosis.
type Severity int

// Severities.
const (
	SeverityOK Severity = iota
	// SeverityInfo: resolution succeeded; the EDE is advisory (the paper's
	// 12.2k NOERROR-with-EDE domains).
	SeverityInfo
	// SeverityDegraded: resolution succeeded but from degraded state
	// (stale cache, synthesized data).
	SeverityDegraded
	// SeverityFailed: resolution failed.
	SeverityFailed
)

func (s Severity) String() string {
	switch s {
	case SeverityOK:
		return "ok"
	case SeverityInfo:
		return "info"
	case SeverityDegraded:
		return "degraded"
	case SeverityFailed:
		return "failed"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Diagnosis is the troubleshooter's output: what went wrong, where the root
// cause sits, and what the responsible party should do. This is the
// operational payoff the paper argues EDE unlocks — troubleshooting from the
// DNS protocol itself, with no external tools.
type Diagnosis struct {
	Severity Severity
	// RootCause is a one-line statement of the most probable root cause.
	RootCause string
	// Party is who has to act: "domain owner", "DNS operator",
	// "resolver operator", or "nobody".
	Party string
	// Remediation is a concrete next step.
	Remediation string
	// Evidence lists the codes and extra text that support the diagnosis.
	Evidence []string
}

// Diagnose converts an observation into a Diagnosis. Codes are prioritized:
// DNSSEC data problems implicate the domain owner before generic
// reachability codes implicate the DNS operator, matching how the paper
// attributes root causes in §4.2.
func Diagnose(o Observation) Diagnosis {
	codes := o.Codes()
	var evidence []string
	for _, e := range o.EDEs {
		if e.ExtraText != "" {
			evidence = append(evidence, fmt.Sprintf("%s: %q", Code(e.InfoCode), e.ExtraText))
		} else {
			evidence = append(evidence, Code(e.InfoCode).String())
		}
	}

	if len(codes) == 0 {
		if o.RCode == dnswire.RCodeNoError {
			return Diagnosis{Severity: SeverityOK, RootCause: "no error reported",
				Party: "nobody", Remediation: "none", Evidence: evidence}
		}
		return Diagnosis{
			Severity:    SeverityFailed,
			RootCause:   fmt.Sprintf("resolution failed with %s and no extended error", o.RCode),
			Party:       "unknown",
			Remediation: "query a resolver that implements RFC 8914 to narrow the cause",
			Evidence:    evidence,
		}
	}

	d := diagnoseCodes(codes)
	d.Evidence = evidence
	if o.RCode == dnswire.RCodeNoError && d.Severity == SeverityFailed {
		// The resolver answered anyway: the EDE is informational
		// (e.g. Cloudflare's stand-by-key RRSIGs Missing reports).
		d.Severity = SeverityInfo
		d.Remediation += " (resolution still succeeded; treat as a warning)"
	}
	return d
}

func diagnoseCodes(codes Set) Diagnosis {
	// Most specific signal first.
	switch {
	case codes.Contains(CodeSignatureExpired) || codes.Contains(CodeSignatureExpiredBeforeValid):
		return Diagnosis{Severity: SeverityFailed, Party: "domain owner",
			RootCause:   "DNSSEC signatures have expired",
			Remediation: "re-sign the zone and verify the signing pipeline runs on schedule"}
	case codes.Contains(CodeSignatureNotYetValid):
		return Diagnosis{Severity: SeverityFailed, Party: "domain owner",
			RootCause:   "DNSSEC signatures are not yet valid (inception in the future)",
			Remediation: "check signer clock and inception offsets"}
	case codes.Contains(CodeDNSKEYMissing):
		return Diagnosis{Severity: SeverityFailed, Party: "domain owner",
			RootCause:   "the DS record at the parent matches no DNSKEY at the child",
			Remediation: "update the DS at the registrar or publish the matching DNSKEY"}
	case codes.Contains(CodeRRSIGsMissing):
		return Diagnosis{Severity: SeverityFailed, Party: "domain owner",
			RootCause:   "required RRSIG records are missing",
			Remediation: "re-sign the zone; if a stand-by KSK is published, this may be advisory"}
	case codes.Contains(CodeNSECMissing):
		return Diagnosis{Severity: SeverityFailed, Party: "domain owner",
			RootCause:   "no valid NSEC/NSEC3 proof of non-existence was served",
			Remediation: "regenerate the zone's denial-of-existence chain"}
	case codes.Contains(CodeNoZoneKeyBitSet):
		return Diagnosis{Severity: SeverityFailed, Party: "domain owner",
			RootCause:   "published DNSKEYs lack the Zone Key bit",
			Remediation: "set flag bit 7 (value 256) on zone keys"}
	case codes.Contains(CodeUnsupportedDNSKEYAlg):
		return Diagnosis{Severity: SeverityFailed, Party: "domain owner",
			RootCause:   "the zone is signed with an algorithm this resolver does not support",
			Remediation: "sign with a widely supported algorithm (ECDSA P-256 or Ed25519)"}
	case codes.Contains(CodeUnsupportedDSDigest):
		return Diagnosis{Severity: SeverityFailed, Party: "domain owner",
			RootCause:   "the DS digest type is not supported by this resolver",
			Remediation: "publish a SHA-256 DS record"}
	case codes.Contains(CodeUnsupportedNSEC3IterValue):
		return Diagnosis{Severity: SeverityFailed, Party: "domain owner",
			RootCause:   "NSEC3 iteration count exceeds the resolver's limit",
			Remediation: "re-sign with 0 NSEC3 iterations (RFC 9276)"}
	case codes.Contains(CodeDNSSECBogus) || codes.Contains(CodeDNSSECIndeterminate):
		return Diagnosis{Severity: SeverityFailed, Party: "domain owner",
			RootCause:   "DNSSEC validation failed (bogus chain of trust)",
			Remediation: "run the zone through a chain analyzer; re-sign or fix the DS"}
	case codes.Contains(CodeNoReachableAuthority) || codes.Contains(CodeNetworkError):
		return Diagnosis{Severity: SeverityFailed, Party: "DNS operator",
			RootCause:   "authoritative nameservers are unreachable or answer with errors (lame delegation)",
			Remediation: "verify NS records and glue point at servers that answer for the zone"}
	case codes.Contains(CodeInvalidData):
		return Diagnosis{Severity: SeverityFailed, Party: "DNS operator",
			RootCause:   "an authoritative server returned malformed or mismatched responses",
			Remediation: "upgrade or fix the nameserver software (EDNS compliance)"}
	case codes.Contains(CodeBlocked) || codes.Contains(CodeCensored) ||
		codes.Contains(CodeFiltered) || codes.Contains(CodeProhibited):
		return Diagnosis{Severity: SeverityFailed, Party: "resolver operator",
			RootCause:   "the resolver refused the query by policy",
			Remediation: "contact the resolver operator or use a different resolver"}
	case codes.Contains(CodeStaleAnswer) || codes.Contains(CodeStaleNXDOMAINAnswer):
		return Diagnosis{Severity: SeverityDegraded, Party: "DNS operator",
			RootCause:   "the resolver served stale cached data because authorities are unreachable",
			Remediation: "restore authoritative server availability"}
	case codes.Contains(CodeCachedError):
		return Diagnosis{Severity: SeverityFailed, Party: "DNS operator",
			RootCause:   "a previous resolution failure is being served from the resolver's cache",
			Remediation: "fix the underlying failure, then wait for the negative cache to expire"}
	case codes.Contains(CodeNotAuthoritative) || codes.Contains(CodeNotReady) || codes.Contains(CodeNotSupported):
		return Diagnosis{Severity: SeverityFailed, Party: "resolver operator",
			RootCause:   "the server cannot serve this query in its current role or state",
			Remediation: "query a recursive resolver rather than this server"}
	default:
		return Diagnosis{Severity: SeverityFailed, Party: "unknown",
			RootCause:   "unclassified extended error",
			Remediation: "inspect the EXTRA-TEXT fields for operator-specific detail"}
	}
}
