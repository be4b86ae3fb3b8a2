// Package ede is the core of the reproduction: the Extended DNS Errors
// registry of RFC 8914 (the paper's Table 1), typed EDE values, a
// troubleshooting engine that turns a DNS response's RCODE + EDE options
// into a root-cause diagnosis, and the cross-resolver agreement analysis
// behind the paper's headline "94% of test cases disagree" result.
package ede

import "fmt"

// Code is an Extended DNS Error INFO-CODE (RFC 8914 §4, IANA
// extended-dns-error-codes).
type Code uint16

// The registered EDE codes (paper Table 1): 0–24 from RFC 8914, 25–29 added
// to the IANA registry afterwards.
const (
	CodeOther                       Code = 0
	CodeUnsupportedDNSKEYAlg        Code = 1
	CodeUnsupportedDSDigest         Code = 2
	CodeStaleAnswer                 Code = 3
	CodeForgedAnswer                Code = 4
	CodeDNSSECIndeterminate         Code = 5
	CodeDNSSECBogus                 Code = 6
	CodeSignatureExpired            Code = 7
	CodeSignatureNotYetValid        Code = 8
	CodeDNSKEYMissing               Code = 9
	CodeRRSIGsMissing               Code = 10
	CodeNoZoneKeyBitSet             Code = 11
	CodeNSECMissing                 Code = 12
	CodeCachedError                 Code = 13
	CodeNotReady                    Code = 14
	CodeBlocked                     Code = 15
	CodeCensored                    Code = 16
	CodeFiltered                    Code = 17
	CodeProhibited                  Code = 18
	CodeStaleNXDOMAINAnswer         Code = 19
	CodeNotAuthoritative            Code = 20
	CodeNotSupported                Code = 21
	CodeNoReachableAuthority        Code = 22
	CodeNetworkError                Code = 23
	CodeInvalidData                 Code = 24
	CodeSignatureExpiredBeforeValid Code = 25
	CodeTooEarly                    Code = 26
	CodeUnsupportedNSEC3IterValue   Code = 27
	CodeUnableToConformToPolicy     Code = 28
	CodeSynthesized                 Code = 29
)

// Category groups codes by the aspect of DNS operation they concern,
// following the paper's Section 2 taxonomy.
type Category string

// Categories from §2: DNSSEC validation (1, 2, 5–12, 25, 27), caching
// (3, 13, 19, 29), resolver policies (4, 15–18, 20), software operation
// (14, 21–23), and others (0, 24, 26, 28).
const (
	CategoryDNSSEC    Category = "dnssec-validation"
	CategoryCaching   Category = "caching"
	CategoryPolicy    Category = "resolver-policy"
	CategoryOperation Category = "software-operation"
	CategoryOther     Category = "other"
)

// Info describes one registry entry.
type Info struct {
	Code     Code
	Name     string
	Category Category
	// Retriable suggests whether retrying elsewhere may help (the RFC's
	// distinction between server conditions and permanent data problems).
	Retriable bool
	// Description is the registry's short purpose text.
	Description string
}

// registry reproduces Table 1 with the §2 categorization.
var registry = map[Code]Info{
	CodeOther:                       {CodeOther, "Other", CategoryOther, true, "The error is not covered by any other code"},
	CodeUnsupportedDNSKEYAlg:        {CodeUnsupportedDNSKEYAlg, "Unsupported DNSKEY Algorithm", CategoryDNSSEC, false, "A DNSKEY uses an algorithm the resolver does not implement"},
	CodeUnsupportedDSDigest:         {CodeUnsupportedDSDigest, "Unsupported DS Digest Type", CategoryDNSSEC, false, "A DS record uses a digest type the resolver does not implement"},
	CodeStaleAnswer:                 {CodeStaleAnswer, "Stale Answer", CategoryCaching, true, "The answer was served from cache past its TTL (RFC 8767)"},
	CodeForgedAnswer:                {CodeForgedAnswer, "Forged Answer", CategoryPolicy, false, "The answer was forged by policy"},
	CodeDNSSECIndeterminate:         {CodeDNSSECIndeterminate, "DNSSEC Indeterminate", CategoryDNSSEC, false, "DNSSEC validation ended in the indeterminate state"},
	CodeDNSSECBogus:                 {CodeDNSSECBogus, "DNSSEC Bogus", CategoryDNSSEC, false, "DNSSEC validation ended in the bogus state"},
	CodeSignatureExpired:            {CodeSignatureExpired, "Signature Expired", CategoryDNSSEC, false, "No valid RRSIG: signatures have expired"},
	CodeSignatureNotYetValid:        {CodeSignatureNotYetValid, "Signature Not Yet Valid", CategoryDNSSEC, false, "No valid RRSIG: signatures are not yet valid"},
	CodeDNSKEYMissing:               {CodeDNSKEYMissing, "DNSKEY Missing", CategoryDNSSEC, false, "No DNSKEY matched the DS records at the parent"},
	CodeRRSIGsMissing:               {CodeRRSIGsMissing, "RRSIGs Missing", CategoryDNSSEC, false, "Signatures required for validation could not be obtained"},
	CodeNoZoneKeyBitSet:             {CodeNoZoneKeyBitSet, "No Zone Key Bit Set", CategoryDNSSEC, false, "No DNSKEY had the Zone Key bit set"},
	CodeNSECMissing:                 {CodeNSECMissing, "NSEC Missing", CategoryDNSSEC, false, "No NSEC/NSEC3 proof of non-existence was available"},
	CodeCachedError:                 {CodeCachedError, "Cached Error", CategoryCaching, true, "The error was served from cache"},
	CodeNotReady:                    {CodeNotReady, "Not Ready", CategoryOperation, true, "The server is not yet ready to answer"},
	CodeBlocked:                     {CodeBlocked, "Blocked", CategoryPolicy, false, "The domain is on the operator's blocklist"},
	CodeCensored:                    {CodeCensored, "Censored", CategoryPolicy, false, "Blocked due to an external requirement"},
	CodeFiltered:                    {CodeFiltered, "Filtered", CategoryPolicy, false, "Filtered per client request"},
	CodeProhibited:                  {CodeProhibited, "Prohibited", CategoryPolicy, false, "The client is not authorized for this operation"},
	CodeStaleNXDOMAINAnswer:         {CodeStaleNXDOMAINAnswer, "Stale NXDOMAIN Answer", CategoryCaching, true, "A stale negative answer was served from cache"},
	CodeNotAuthoritative:            {CodeNotAuthoritative, "Not Authoritative", CategoryPolicy, true, "The server is not authoritative and recursion was not requested"},
	CodeNotSupported:                {CodeNotSupported, "Not Supported", CategoryOperation, false, "The requested operation is not supported"},
	CodeNoReachableAuthority:        {CodeNoReachableAuthority, "No Reachable Authority", CategoryOperation, true, "No authoritative server could be reached (lame delegation)"},
	CodeNetworkError:                {CodeNetworkError, "Network Error", CategoryOperation, true, "An unrecoverable network error occurred talking to another server"},
	CodeInvalidData:                 {CodeInvalidData, "Invalid Data", CategoryOther, false, "The server returned invalid or mismatched data"},
	CodeSignatureExpiredBeforeValid: {CodeSignatureExpiredBeforeValid, "Signature Expired before Valid", CategoryDNSSEC, false, "RRSIG expiration precedes inception"},
	CodeTooEarly:                    {CodeTooEarly, "Too Early", CategoryOther, true, "The request was sent too early (0-RTT)"},
	CodeUnsupportedNSEC3IterValue:   {CodeUnsupportedNSEC3IterValue, "Unsupported NSEC3 Iterations Value", CategoryDNSSEC, false, "NSEC3 iteration count above the resolver's limit"},
	CodeUnableToConformToPolicy:     {CodeUnableToConformToPolicy, "Unable to conform to policy", CategoryOther, false, "Server cannot conform to the client's requested policy"},
	CodeSynthesized:                 {CodeSynthesized, "Synthesized", CategoryCaching, false, "The answer was synthesized (e.g. aggressive NSEC use)"},
}

// Lookup returns the registry entry for code and whether it is registered.
func Lookup(code Code) (Info, bool) {
	info, ok := registry[code]
	return info, ok
}

// Name returns the registered name, or "Unassigned-N" for unknown codes.
func (c Code) Name() string {
	if info, ok := registry[c]; ok {
		return info.Name
	}
	return fmt.Sprintf("Unassigned-%d", uint16(c))
}

func (c Code) String() string {
	return fmt.Sprintf("%s (%d)", c.Name(), uint16(c))
}

// Set is an ordered collection of EDE codes as returned in one response.
type Set []Code

// Contains reports whether the set includes code.
func (s Set) Contains(code Code) bool {
	for _, c := range s {
		if c == code {
			return true
		}
	}
	return false
}

// Equal compares two sets as multisets (order-insensitive), matching how the
// paper compares resolver outputs.
func (s Set) Equal(other Set) bool {
	if len(s) != len(other) {
		return false
	}
	count := make(map[Code]int, len(s))
	for _, c := range s {
		count[c]++
	}
	for _, c := range other {
		count[c]--
		if count[c] < 0 {
			return false
		}
	}
	return true
}

func (s Set) String() string {
	if len(s) == 0 {
		return "None"
	}
	out := ""
	for i, c := range s {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d", uint16(c))
	}
	return out
}
