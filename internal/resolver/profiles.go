package resolver

import (
	"maps"
	"slices"
	"strings"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
)

// Profile captures one vendor's observable EDE behaviour as of May 2023:
// which algorithms it validates, which conditions it reports, and with which
// INFO-CODEs. The mapping tables transcribe the paper's Table 4 — the
// detection machinery is shared (this package), only the reporting policy
// differs, which is exactly the paper's conclusion ("the differences come
// from response specificity and the support of specific EDE codes rather
// than correctness", §1). A profile is a behaviour class (Support and
// ServeStale, the two fields a resolution reads; SameBehaviour) plus a
// reporting table (Map and ExtraText, read only by Report).
type Profile struct {
	Name    string
	Support dnssec.SupportSet
	// Map lists the EDE codes emitted for each condition. Absent conditions
	// emit nothing (the resolver still fails per the condition's class).
	Map map[Condition][]ede.Code
	// ExtraText enables Cloudflare-style diagnostic EXTRA-TEXT fields.
	ExtraText bool
	// ServeStale enables RFC 8767 stale answers when authorities fail.
	ServeStale bool
}

// ProfileBIND9 models BIND 9.19.9: full validation, but at that release the
// implemented EDE codes cover only response-policy zones and stale data —
// none of the testbed's validation failures are reported (Table 4 column 1
// is entirely "None").
func ProfileBIND9() *Profile {
	return &Profile{
		Name:    "BIND 9.19.9",
		Support: dnssec.StandardSupport(),
		Map: map[Condition][]ede.Code{
			ConditionStaleServed:   {ede.CodeStaleAnswer},
			ConditionStaleNXServed: {ede.CodeStaleNXDOMAINAnswer},
		},
		ServeStale: true,
	}
}

// ProfileUnbound models Unbound 1.16.2, which prioritized the DNSSEC error
// codes and implemented all of them.
func ProfileUnbound() *Profile {
	return &Profile{
		Name:    "Unbound 1.16.2",
		Support: dnssec.StandardSupport(),
		Map: map[Condition][]ede.Code{
			ConditionDSNoMatchingKey:    {ede.CodeDNSKEYMissing},
			ConditionDSDigestMismatch:   {ede.CodeDNSKEYMissing},
			ConditionNoZoneBitBoth:      {ede.CodeDNSKEYMissing},
			ConditionNoRRSIGKSK:         {ede.CodeRRSIGsMissing},
			ConditionBadRRSIGKSK:        {ede.CodeDNSKEYMissing},
			ConditionNoRRSIGDNSKEY:      {ede.CodeRRSIGsMissing},
			ConditionBadRRSIGDNSKEY:     {ede.CodeDNSKEYMissing},
			ConditionSigExpiredAll:      {ede.CodeSignatureExpired},
			ConditionSigExpiredAnswer:   {ede.CodeDNSSECBogus},
			ConditionSigNotYetAll:       {ede.CodeDNSKEYMissing},
			ConditionSigNotYetAnswer:    {ede.CodeDNSSECBogus},
			ConditionRRSIGMissingAnswer: {ede.CodeRRSIGsMissing},
			ConditionSigExpBeforeAll:    {ede.CodeDNSKEYMissing},
			ConditionSigExpBeforeAnswer: {ede.CodeDNSSECBogus},
			ConditionNoZSK:              {ede.CodeDNSKEYMissing},
			ConditionBadZSK:             {ede.CodeDNSKEYMissing},
			ConditionNoZoneBitZSK:       {ede.CodeDNSKEYMissing},
			ConditionBadZSKAlgo:         {ede.CodeDNSKEYMissing},
			ConditionUnassignedZSKAlgo:  {ede.CodeDNSKEYMissing},
			ConditionReservedZSKAlgo:    {ede.CodeDNSKEYMissing},
			ConditionAnswerSigInvalid:   {ede.CodeDNSSECBogus},
			ConditionNSEC3Missing:       {ede.CodeNSECMissing},
			ConditionNSEC3BadHash:       {ede.CodeDNSSECBogus},
			ConditionNSEC3BadNext:       {ede.CodeDNSSECBogus},
			ConditionNSEC3BadRRSIG:      {ede.CodeDNSSECBogus},
			ConditionNSEC3RRSIGMissing:  {ede.CodeNSECMissing},
			ConditionNSEC3ParamMismatch: {ede.CodeNSECMissing},
			ConditionDenialUnsignedSOA:  {ede.CodeRRSIGsMissing},
			ConditionDenialBare:         {ede.CodeRRSIGsMissing},
		},
	}
}

// ProfilePowerDNS models PowerDNS Recursor 4.8.2 (EDE enabled via
// extended-resolution-errors=yes).
func ProfilePowerDNS() *Profile {
	return &Profile{
		Name:    "PowerDNS 4.8.2",
		Support: dnssec.StandardSupport(),
		Map: map[Condition][]ede.Code{
			ConditionDSNoMatchingKey:    {ede.CodeDNSKEYMissing},
			ConditionDSDigestMismatch:   {ede.CodeDNSKEYMissing},
			ConditionNoZoneBitBoth:      {ede.CodeRRSIGsMissing},
			ConditionNoRRSIGKSK:         {ede.CodeDNSKEYMissing},
			ConditionBadRRSIGKSK:        {ede.CodeDNSSECBogus},
			ConditionNoRRSIGDNSKEY:      {ede.CodeRRSIGsMissing},
			ConditionBadRRSIGDNSKEY:     {ede.CodeDNSSECBogus},
			ConditionSigExpiredAll:      {ede.CodeSignatureExpired},
			ConditionSigExpiredAnswer:   {ede.CodeSignatureExpired},
			ConditionSigNotYetAll:       {ede.CodeSignatureNotYetValid},
			ConditionSigNotYetAnswer:    {ede.CodeSignatureNotYetValid},
			ConditionRRSIGMissingAnswer: {ede.CodeRRSIGsMissing},
			ConditionSigExpBeforeAll:    {ede.CodeSignatureExpired},
			ConditionSigExpBeforeAnswer: {ede.CodeSignatureExpired},
			ConditionNoZSK:              {ede.CodeDNSSECBogus},
			ConditionBadZSK:             {ede.CodeDNSSECBogus},
			ConditionNoZoneBitZSK:       {ede.CodeDNSSECBogus},
			ConditionBadZSKAlgo:         {ede.CodeDNSSECBogus},
			ConditionUnassignedZSKAlgo:  {ede.CodeDNSSECBogus},
			ConditionReservedZSKAlgo:    {ede.CodeDNSSECBogus},
			ConditionAnswerSigInvalid:   {ede.CodeDNSSECBogus},
			ConditionDenialUnsignedSOA:  {ede.CodeRRSIGsMissing},
			ConditionDenialBare:         {ede.CodeRRSIGsMissing},
			// PowerDNS returned no EDE for the NSEC3 corruption cases
			// (Table 4 rows 17–21, 23).
		},
	}
}

// ProfileKnot models Knot Resolver 5.6.0, which favours the generic DNSSEC
// Bogus code and uses Other (0) with an "LSLC: unsupported digest/key"
// message for unsupported algorithm material.
func ProfileKnot() *Profile {
	return &Profile{
		Name:    "Knot 5.6.0",
		Support: dnssec.StandardSupport(),
		Map: map[Condition][]ede.Code{
			ConditionDSNoMatchingKey:     {ede.CodeDNSSECBogus},
			ConditionDSUnassignedAlg:     {ede.CodeOther},
			ConditionDSReservedAlg:       {ede.CodeOther},
			ConditionDSUnsupportedDigest: {ede.CodeOther},
			ConditionDSDigestMismatch:    {ede.CodeDNSSECBogus},
			ConditionNoZoneBitBoth:       {ede.CodeRRSIGsMissing},
			ConditionNoRRSIGKSK:          {ede.CodeDNSSECBogus},
			ConditionBadRRSIGKSK:         {ede.CodeDNSSECBogus},
			ConditionNoRRSIGDNSKEY:       {ede.CodeRRSIGsMissing},
			ConditionBadRRSIGDNSKEY:      {ede.CodeDNSSECBogus},
			ConditionSigExpiredAll:       {ede.CodeSignatureExpired},
			ConditionSigNotYetAll:        {ede.CodeSignatureNotYetValid},
			ConditionRRSIGMissingAnswer:  {ede.CodeRRSIGsMissing},
			ConditionSigExpBeforeAll:     {ede.CodeSignatureExpired},
			ConditionNoZSK:               {ede.CodeDNSSECBogus},
			ConditionBadZSK:              {ede.CodeDNSSECBogus},
			ConditionNoZoneBitZSK:        {ede.CodeDNSSECBogus},
			ConditionBadZSKAlgo:          {ede.CodeDNSSECBogus},
			ConditionUnassignedZSKAlgo:   {ede.CodeDNSSECBogus},
			ConditionReservedZSKAlgo:     {ede.CodeDNSSECBogus},
			ConditionAnswerSigInvalid:    {ede.CodeDNSSECBogus},
			ConditionAlgDeprecated:       {ede.CodeOther},
			ConditionNSEC3Missing:        {ede.CodeNSECMissing},
			ConditionNSEC3BadHash:        {ede.CodeDNSSECBogus},
			ConditionNSEC3BadNext:        {ede.CodeDNSSECBogus},
			ConditionNSEC3BadRRSIG:       {ede.CodeDNSSECBogus},
			ConditionNSEC3RRSIGMissing:   {ede.CodeRRSIGsMissing},
			ConditionNSEC3ParamMismatch:  {ede.CodeNSECMissing},
			ConditionDenialUnsignedSOA:   {ede.CodeRRSIGsMissing},
			ConditionDenialBare:          {ede.CodeRRSIGsMissing},
			// Knot answered the expired/not-yet/exp-before "-a" variants
			// with no EDE (Table 4 rows 10, 12, 16).
		},
	}
}

// ProfileCloudflare models Cloudflare DNS (1.1.1.1) — the richest EDE
// implementation measured, including reachability reporting (22/23),
// Invalid Data (24), cache codes, and verbose EXTRA-TEXT. It lacks Ed448
// and GOST support and enforces a 1024-bit RSA floor.
func ProfileCloudflare() *Profile {
	return &Profile{
		Name:    "Cloudflare",
		Support: dnssec.CloudflareSupport(),
		Map: map[Condition][]ede.Code{
			ConditionDSNoMatchingKey:       {ede.CodeDNSKEYMissing},
			ConditionDSUnassignedAlg:       {ede.CodeDNSKEYMissing},
			ConditionDSReservedAlg:         {ede.CodeUnsupportedDNSKEYAlg},
			ConditionDSUnsupportedDigest:   {ede.CodeUnsupportedDSDigest},
			ConditionDSDigestMismatch:      {ede.CodeDNSSECBogus},
			ConditionNoZoneBitBoth:         {ede.CodeDNSKEYMissing},
			ConditionNoRRSIGKSK:            {ede.CodeRRSIGsMissing},
			ConditionBadRRSIGKSK:           {ede.CodeDNSSECBogus},
			ConditionNoRRSIGDNSKEY:         {ede.CodeRRSIGsMissing},
			ConditionBadRRSIGDNSKEY:        {ede.CodeDNSSECBogus},
			ConditionSigExpiredAll:         {ede.CodeSignatureExpired},
			ConditionSigExpiredAnswer:      {ede.CodeSignatureExpired},
			ConditionSigNotYetAll:          {ede.CodeSignatureNotYetValid},
			ConditionSigNotYetAnswer:       {ede.CodeSignatureNotYetValid},
			ConditionRRSIGMissingAnswer:    {ede.CodeRRSIGsMissing},
			ConditionSigExpBeforeAll:       {ede.CodeRRSIGsMissing},
			ConditionSigExpBeforeAnswer:    {ede.CodeSignatureExpired},
			ConditionNoZSK:                 {ede.CodeDNSSECBogus},
			ConditionBadZSK:                {ede.CodeDNSSECBogus},
			ConditionNoZoneBitZSK:          {ede.CodeDNSSECBogus},
			ConditionBadZSKAlgo:            {ede.CodeDNSSECBogus},
			ConditionUnassignedZSKAlgo:     {ede.CodeDNSSECBogus},
			ConditionReservedZSKAlgo:       {ede.CodeDNSSECBogus},
			ConditionAnswerSigInvalid:      {ede.CodeDNSSECBogus},
			ConditionAlgUnsupported:        {ede.CodeUnsupportedDNSKEYAlg},
			ConditionAlgDeprecated:         {ede.CodeUnsupportedDNSKEYAlg},
			ConditionNSEC3Missing:          {ede.CodeDNSSECBogus},
			ConditionNSEC3BadHash:          {ede.CodeDNSSECBogus},
			ConditionNSEC3BadNext:          {ede.CodeDNSSECBogus},
			ConditionNSEC3BadRRSIG:         {ede.CodeDNSSECBogus},
			ConditionNSEC3RRSIGMissing:     {ede.CodeDNSSECBogus},
			ConditionNSEC3ParamMismatch:    {ede.CodeDNSSECBogus},
			ConditionDenialUnsignedSOA:     {ede.CodeRRSIGsMissing},
			ConditionDenialBare:            {ede.CodeRRSIGsMissing},
			ConditionUnreachableAllTimeout: {ede.CodeNoReachableAuthority},
			ConditionUnreachableRefused:    {ede.CodeNoReachableAuthority, ede.CodeNetworkError},
			ConditionUnreachableServfail:   {ede.CodeNoReachableAuthority, ede.CodeNetworkError},
			ConditionNotAuthAll:            {ede.CodeCachedError},
			ConditionDNSKEYUnobtainable:    {ede.CodeDNSKEYMissing},
			ConditionUpstreamError:         {ede.CodeNetworkError},
			ConditionNetworkError:          {ede.CodeNetworkError},
			ConditionStaleServed:           {ede.CodeStaleAnswer},
			ConditionStaleNXServed:         {ede.CodeStaleNXDOMAINAnswer},
			ConditionCachedError:           {ede.CodeCachedError},
			ConditionInvalidData:           {ede.CodeInvalidData},
			ConditionIterationLimit:        {ede.CodeOther},
			ConditionReferralProofMissing:  {ede.CodeNSECMissing},
			ConditionReferralProofBogus:    {ede.CodeDNSSECBogus},
			ConditionStandbyKSKUnsigned:    {ede.CodeRRSIGsMissing},
		},
		ExtraText:  true,
		ServeStale: true,
	}
}

// ProfileQuad9 models Quad9.
func ProfileQuad9() *Profile {
	return &Profile{
		Name:    "Quad9",
		Support: dnssec.StandardSupport(),
		Map: map[Condition][]ede.Code{
			ConditionDSNoMatchingKey:    {ede.CodeDNSKEYMissing},
			ConditionDSDigestMismatch:   {ede.CodeDNSKEYMissing},
			ConditionNoZoneBitBoth:      {ede.CodeRRSIGsMissing},
			ConditionNoRRSIGKSK:         {ede.CodeDNSKEYMissing},
			ConditionBadRRSIGKSK:        {ede.CodeDNSSECBogus},
			ConditionNoRRSIGDNSKEY:      {ede.CodeDNSKEYMissing},
			ConditionBadRRSIGDNSKEY:     {ede.CodeDNSKEYMissing},
			ConditionSigExpiredAll:      {ede.CodeSignatureExpired},
			ConditionSigExpiredAnswer:   {ede.CodeDNSSECBogus},
			ConditionSigNotYetAll:       {ede.CodeDNSKEYMissing},
			ConditionSigNotYetAnswer:    {ede.CodeSignatureNotYetValid},
			ConditionRRSIGMissingAnswer: {ede.CodeRRSIGsMissing},
			ConditionSigExpBeforeAll:    {ede.CodeDNSKEYMissing},
			ConditionSigExpBeforeAnswer: {ede.CodeSignatureExpired},
			ConditionNoZSK:              {ede.CodeDNSKEYMissing},
			ConditionBadZSK:             {ede.CodeDNSSECBogus},
			ConditionNoZoneBitZSK:       {ede.CodeDNSKEYMissing},
			ConditionBadZSKAlgo:         {ede.CodeDNSSECBogus},
			ConditionUnassignedZSKAlgo:  {ede.CodeDNSKEYMissing},
			ConditionReservedZSKAlgo:    {ede.CodeDNSSECBogus},
			ConditionAnswerSigInvalid:   {ede.CodeDNSSECBogus},
			ConditionNSEC3BadHash:       {ede.CodeDNSSECBogus},
			ConditionNSEC3BadNext:       {ede.CodeDNSSECBogus},
			ConditionNSEC3RRSIGMissing:  {ede.CodeDNSKEYMissing},
			ConditionNSEC3ParamMismatch: {ede.CodeDNSKEYMissing},
			ConditionDenialUnsignedSOA:  {ede.CodeDNSKEYMissing},
			ConditionDenialBare:         {ede.CodeRRSIGsMissing},
			// Quad9 returned no EDE for nsec3-missing and bad-nsec3-rrsig
			// (Table 4 rows 17, 20).
		},
	}
}

// ProfileOpenDNS models OpenDNS, which leans on the generic DNSSEC Bogus
// code and reports ACL-refused authorities as Prohibited (18) — the paper
// filed a ticket about the latter.
func ProfileOpenDNS() *Profile {
	return &Profile{
		Name:    "OpenDNS",
		Support: dnssec.StandardSupport(),
		Map: map[Condition][]ede.Code{
			ConditionDSNoMatchingKey:    {ede.CodeDNSSECBogus},
			ConditionDSUnassignedAlg:    {ede.CodeDNSSECBogus},
			ConditionDSReservedAlg:      {ede.CodeDNSSECBogus},
			ConditionDSDigestMismatch:   {ede.CodeDNSSECBogus},
			ConditionNoZoneBitBoth:      {ede.CodeDNSSECBogus},
			ConditionNoRRSIGKSK:         {ede.CodeDNSSECBogus},
			ConditionBadRRSIGKSK:        {ede.CodeDNSSECBogus},
			ConditionNoRRSIGDNSKEY:      {ede.CodeDNSSECBogus},
			ConditionBadRRSIGDNSKEY:     {ede.CodeDNSSECBogus},
			ConditionSigExpiredAll:      {ede.CodeDNSSECBogus},
			ConditionSigExpiredAnswer:   {ede.CodeSignatureExpired},
			ConditionSigNotYetAll:       {ede.CodeDNSSECBogus},
			ConditionSigNotYetAnswer:    {ede.CodeSignatureNotYetValid},
			ConditionSigExpBeforeAll:    {ede.CodeDNSSECBogus},
			ConditionSigExpBeforeAnswer: {ede.CodeSignatureExpired},
			ConditionNoZSK:              {ede.CodeDNSSECBogus},
			ConditionBadZSK:             {ede.CodeDNSSECBogus},
			ConditionNoZoneBitZSK:       {ede.CodeDNSSECBogus},
			ConditionBadZSKAlgo:         {ede.CodeDNSSECBogus},
			ConditionUnassignedZSKAlgo:  {ede.CodeDNSSECBogus},
			ConditionReservedZSKAlgo:    {ede.CodeDNSSECBogus},
			ConditionAnswerSigInvalid:   {ede.CodeDNSSECBogus},
			ConditionNSEC3Missing:       {ede.CodeNSECMissing},
			ConditionNSEC3BadHash:       {ede.CodeNSECMissing},
			ConditionNSEC3BadNext:       {ede.CodeDNSSECBogus},
			ConditionNSEC3BadRRSIG:      {ede.CodeDNSSECBogus},
			ConditionNSEC3RRSIGMissing:  {ede.CodeNSECMissing},
			ConditionNSEC3ParamMismatch: {ede.CodeNSECMissing},
			ConditionDenialUnsignedSOA:  {ede.CodeDNSSECBogus},
			ConditionDenialBare:         {ede.CodeDNSSECBogus},
			ConditionUnreachableRefused: {ede.CodeProhibited},
			// OpenDNS returned no EDE for rrsig-no-a (Table 4 row 14) and
			// for the invalid-glue groups.
		},
	}
}

// AllProfiles returns the seven tested systems in the paper's column order.
func AllProfiles() []*Profile {
	return []*Profile{
		ProfileBIND9(), ProfileUnbound(), ProfilePowerDNS(), ProfileKnot(),
		ProfileCloudflare(), ProfileQuad9(), ProfileOpenDNS(),
	}
}

// ProfileByName resolves the name a user typed on a command line or in a
// scenario file: the profile's exact Name, or a case-insensitive match on
// the name's first word ("bind" selects "BIND 9.19.9"). Nothing else
// matches — no substrings, no default.
func ProfileByName(name string) (*Profile, bool) {
	for _, p := range AllProfiles() {
		if first, _, _ := strings.Cut(p.Name, " "); name == p.Name || strings.EqualFold(name, first) {
			return p, true
		}
	}
	return nil, false
}

// SameBehaviour reports whether p and q resolve every question alike: the
// same algorithm support and serve-stale policy, the only fields a resolution
// reads. Such profiles differ only in what Report makes of a resolution.
func (p *Profile) SameBehaviour(q *Profile) bool {
	return p.ServeStale == q.ServeStale && p.Support.MinRSABits == q.Support.MinRSABits &&
		maps.Equal(p.Support.Algorithms, q.Support.Algorithms) && maps.Equal(p.Support.Digests, q.Support.Digests)
}

// ByBehaviour groups profiles into behaviour classes (SameBehaviour), in
// order of first appearance and each in input order. One resolver built with
// a class's first profile serves every profile in it through Report; the
// seven of AllProfiles fall into three classes.
func ByBehaviour(profiles []*Profile) [][]*Profile {
	var classes [][]*Profile
	for _, p := range profiles {
		i := slices.IndexFunc(classes, func(class []*Profile) bool { return class[0].SameBehaviour(p) })
		if i < 0 {
			classes, i = append(classes, nil), len(classes)
		}
		classes[i] = append(classes[i], p)
	}
	return classes
}

// Report is the profile's reporting policy as a pure function: the EDE
// options a response attaches for a resolution that recorded conds, with
// details holding some conditions' diagnostic text. Codes are deduplicated
// and sorted numerically (matching how the paper reports multi-code
// responses, e.g. Cloudflare's "9,22,23"). Under ExtraText each option
// carries the detail of the first condition in conds that maps to its code
// and has one.
func (p *Profile) Report(conds []Condition, details map[Condition]string) []dnswire.EDEOption {
	var out []dnswire.EDEOption
	for _, c := range conds {
		text := ""
		if p.ExtraText {
			text = details[c]
		}
	next:
		for _, code := range p.Map[c] {
			// Sets are tiny (rarely more than three codes), so a linear
			// dedup beats allocating a seen-map on every resolution.
			for i := range out {
				if out[i].InfoCode == uint16(code) {
					if out[i].ExtraText == "" {
						out[i].ExtraText = text
					}
					continue next
				}
			}
			if out == nil {
				out = make([]dnswire.EDEOption, 0, 4) // one allocation for any set Table 4 holds
			}
			out = append(out, dnswire.EDEOption{InfoCode: uint16(code), ExtraText: text})
		}
	}
	slices.SortFunc(out, func(a, b dnswire.EDEOption) int { return int(a.InfoCode) - int(b.InfoCode) })
	return out
}
