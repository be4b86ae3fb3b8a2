package resolver

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// walkConds snapshots the conditions a root→cut walk accumulated, for
// storage in the delegation cache. inherited is the replayed condition set
// of the cached cut the walk started from; observed is the slice of
// conditions this resolve invocation recorded (replayed ones included, but
// possibly deduplicated away when an outer CNAME phase had already recorded
// them — which is why inherited is carried explicitly). details supplies the
// EXTRA-TEXT backing for each condition. When the walk observed nothing new
// it returns inherited itself: cut bodies are immutable, so the children of
// one cut can share its conditions, and then their bodies.
func walkConds(inherited []condRecord, observed []Condition, details map[Condition]string) []condRecord {
	out := inherited
	for _, c := range observed {
		if slices.ContainsFunc(out, func(have condRecord) bool { return have.cond == c }) {
			continue
		}
		if len(out) == len(inherited) { // the first new one: never append to inherited
			out = append([]condRecord(nil), inherited...)
		}
		out = append(out, condRecord{cond: c, detail: details[c]})
	}
	return out
}

// splitSection divides records into the RRset for (owner, t) and the RRSIGs
// covering it.
func splitSection(rrs []dnswire.RR, owner dnswire.Name, t dnswire.Type) (set, sigs []dnswire.RR) {
	for _, rr := range rrs {
		if rr.Name != owner {
			continue
		}
		if sig, ok := rr.Data.(dnswire.RRSIG); ok {
			if sig.TypeCovered == t {
				sigs = append(sigs, rr)
			}
			continue
		}
		if rr.Type() == t {
			set = append(set, rr)
		}
	}
	return set, sigs
}

// evaluateDelegation validates the DS (or its absence) in a referral and
// returns the child's DS set and whether the chain stays secure.
func (st *resolution) evaluateDelegation(resp *dnswire.Message, parent dnswire.Name, parentDS []dnswire.DS, parentSecure bool, child dnswire.Name, parentServers []netip.Addr) ([]dnswire.DS, bool) {
	if !parentSecure {
		return nil, false
	}
	dsRRs, dsSigs := splitSection(resp.Authority, child, dnswire.TypeDS)

	// Establish the parent's keys (cached across resolutions).
	parentKeys := st.establishKeys(parent, parentDS, parentServers)
	if parentKeys == nil {
		// The parent itself failed key establishment; conditions are
		// already recorded.
		return nil, false
	}

	now := uint32(st.r.Now().Unix())
	sup := st.r.Profile.Support
	verified := st.r.Cache.verified
	if len(dsRRs) > 0 {
		chk := verified.CheckRRset(dsRRs, dsSigs, parentKeys, now, sup)
		if chk.Status != dnssec.SigOK {
			st.addCond(ConditionReferralProofBogus,
				fmt.Sprintf("DS RRset for %s failed validation: %s", child, chk.Status))
			return nil, false
		}
		if st.cur != nil {
			st.cur.Eventf("delegation %s → %s: DS RRset (%d records) validated by %s keys, chain stays secure",
				parent, child, len(dsRRs), parent)
		}
		out := make([]dnswire.DS, 0, len(dsRRs))
		for _, rr := range dsRRs {
			out = append(out, rr.Data.(dnswire.DS))
		}
		return out, true
	}

	// No DS: the referral must prove the delegation is unsigned, with a
	// plain NSEC at the cut whose bitmap lacks DS, an NSEC3 matching the cut
	// whose bitmap lacks DS, or — in an opt-out zone, where unsigned
	// delegations have no NSEC3 of their own — a closest-encloser proof
	// whose covering NSEC3 has the Opt-Out flag (RFC 5155 §8.9).
	missing := func() ([]dnswire.DS, bool) {
		st.addCond(ConditionReferralProofMissing,
			fmt.Sprintf("failed to verify an insecure referral proof for %s", child))
		return nil, false
	}
	bogus := func(status dnssec.SigStatus) ([]dnswire.DS, bool) {
		st.addCond(ConditionReferralProofBogus,
			fmt.Sprintf("insecure referral proof for %s failed validation: %s", child, status))
		return nil, false
	}
	assertsDS := func(types []dnswire.Type) bool {
		for _, t := range types {
			if t == dnswire.TypeDS {
				st.addCond(ConditionReferralProofBogus,
					fmt.Sprintf("insecure referral proof for %s asserts a DS exists", child))
				return true
			}
		}
		return false
	}
	nsecs, _ := collectProofs(resp.Authority, dnswire.TypeNSEC)
	for _, g := range nsecs {
		if g.set[0].Name != child {
			continue
		}
		if assertsDS(g.set[0].Data.(dnswire.NSEC).Types) {
			return nil, false
		}
		if chk := verified.CheckRRset(g.set, g.sigs, parentKeys, now, sup); chk.Status != dnssec.SigOK {
			return bogus(chk.Status)
		}
		st.addCond(ConditionInsecure, "")
		return nil, false
	}
	nsec3s, bad := collectProofs(resp.Authority, dnswire.TypeNSEC3)
	if len(nsec3s) == 0 || bad {
		return missing()
	}
	// Both remaining proofs turn on the child's hash — an NSEC3 that matches
	// it, or an opt-out span that covers it — so it is computed once.
	hashed := nsec3Hasher{name: child}
	for _, grp := range nsec3s {
		rec := grp.set[0].Data.(dnswire.NSEC3)
		if !usableNSEC3(rec) || !nsec3OwnerIs(grp.set[0].Name, parent, hashed.hash(rec)) {
			continue
		}
		if assertsDS(rec.Types) {
			return nil, false
		}
		if chk := verified.CheckRRset(grp.set, grp.sigs, parentKeys, now, sup); chk.Status != dnssec.SigOK {
			return bogus(chk.Status)
		}
		st.addCond(ConditionInsecure, "")
		return nil, false
	}
	encloser, cover, ok := optOutProof(nsec3s, parent, &hashed)
	if !ok {
		return missing()
	}
	if chk := verified.CheckRRset(encloser.set, encloser.sigs, parentKeys, now, sup); chk.Status != dnssec.SigOK {
		return bogus(chk.Status)
	}
	if cover.set[0].Name != encloser.set[0].Name {
		if chk := verified.CheckRRset(cover.set, cover.sigs, parentKeys, now, sup); chk.Status != dnssec.SigOK {
			return bogus(chk.Status)
		}
	}
	st.addCond(ConditionInsecure, "")
	return nil, false
}

// nsec3Hasher hashes one name under the parameters of the NSEC3 records it is
// checked against, keeping the last result: the records of one proof share
// their parameters (RFC 5155 §7.1), so the name is hashed once.
type nsec3Hasher struct {
	name   dnswire.Name
	params dnswire.NSEC3 // Iterations and Salt of the hash held
	held   []byte
}

// usableNSEC3 reports whether rec's parameters are ones the validator will
// hash under: SHA-1, and no more iterations than the cap. A record that fails
// this proves nothing, and is skipped before any hashing is spent on it.
func usableNSEC3(rec dnswire.NSEC3) bool {
	return rec.HashAlg == dnssec.NSEC3HashSHA1 && rec.Iterations <= dnssec.MaxNSEC3Iterations
}

func (h *nsec3Hasher) hash(rec dnswire.NSEC3) []byte {
	if h.held == nil || rec.Iterations != h.params.Iterations || !bytes.Equal(rec.Salt, h.params.Salt) {
		h.params, h.held = rec, dnssec.NSEC3Hash(h.name, rec.Iterations, rec.Salt)
	}
	return h.held
}

// optOutProof finds, among a referral's NSEC3 RRsets, the RFC 5155 §8.9
// proof that child — the name hashed holds — is an unsigned delegation of an
// opt-out zone: one NSEC3 matching the closest encloser of child inside zone,
// and one with the Opt-Out flag covering the next closer name, both under the
// same hash parameters. The caller validates the two RRsets' signatures.
func optOutProof(nsec3s []proofGroup, zone dnswire.Name, hashed *nsec3Hasher) (encloser, cover proofGroup, ok bool) {
	child := hashed.name
	for _, ce := range nsec3s {
		params := ce.set[0].Data.(dnswire.NSEC3)
		if !usableNSEC3(params) {
			continue
		}
		// Walk up from the delegation to the apex: the first ancestor this
		// NSEC3 matches is the closest encloser it can vouch for, and the
		// name one label below it is the next closer name.
		nextCloser := child
		for n := child.Parent(); ; nextCloser, n = n, n.Parent() {
			if nsec3OwnerIs(ce.set[0].Name, zone, dnssec.NSEC3Hash(n, params.Iterations, params.Salt)) {
				// A delegation directly below its closest encloser — every
				// TLD's — is its own next closer name.
				h := hashed.hash(params)
				if nextCloser != child {
					h = dnssec.NSEC3Hash(nextCloser, params.Iterations, params.Salt)
				}
				for _, c := range nsec3s {
					rec := c.set[0].Data.(dnswire.NSEC3)
					if rec.Flags&dnswire.NSEC3FlagOptOut == 0 || rec.HashAlg != params.HashAlg ||
						rec.Iterations != params.Iterations || !bytes.Equal(rec.Salt, params.Salt) {
						continue
					}
					if owner := nsec3OwnerHash(c.set[0].Name, zone); owner != nil && dnssec.CoversHash(owner, rec.NextHashed, h) {
						return ce, c, true
					}
				}
				break
			}
			if n == zone || n.IsRoot() {
				break
			}
		}
	}
	return proofGroup{}, proofGroup{}, false
}

// nsec3Label returns the label(s) owner carries below zone — for an NSEC3
// owner name, the one label that spells its hash.
func nsec3Label(owner, zone dnswire.Name) (string, bool) {
	below := string(owner)
	if !zone.IsRoot() {
		var ok bool
		if below, ok = strings.CutSuffix(below, string(zone)); !ok {
			return "", false
		}
	}
	return strings.CutSuffix(below, ".")
}

// nsec3OwnerIs reports whether owner is the NSEC3 owner name of hash in zone:
// base32hex(hash) as the one label below the apex.
func nsec3OwnerIs(owner, zone dnswire.Name, hash []byte) bool {
	var buf [32]byte // a SHA-1 hash is 32 base32hex digits
	label, ok := nsec3Label(owner, zone)
	return ok && label == string(dnswire.AppendBase32Hex(buf[:0], hash))
}

// nsec3OwnerHash decodes the hash an NSEC3 owner name carries as its single
// label below zone; nil when owner is not such a name.
func nsec3OwnerHash(owner, zone dnswire.Name) []byte {
	label, ok := nsec3Label(owner, zone)
	if !ok {
		return nil
	}
	// The error only says the label is no hash — a bad digit, a dot, an
	// escape — which the nil result already tells the caller.
	hash, _ := dnswire.DecodeBase32Hex(label)
	return hash
}

// proofGroup is one NSEC or NSEC3 RRset with its signatures.
type proofGroup struct {
	owner dnswire.Name
	set   []dnswire.RR
	sigs  []dnswire.RR
}

// collectProofs groups the records of denial type t (NSEC or NSEC3) and the
// RRSIGs covering them by owner, in order of first appearance. orphan reports
// an RRSIG whose records are absent; such a group is dropped.
func collectProofs(rrs []dnswire.RR, t dnswire.Type) (groups []proofGroup, orphan bool) {
	for _, rr := range rrs {
		sig, isSig := rr.Data.(dnswire.RRSIG)
		if (isSig && sig.TypeCovered != t) || (!isSig && rr.Type() != t) {
			continue
		}
		var g *proofGroup
		for i := range groups {
			if groups[i].owner == rr.Name {
				g = &groups[i]
				break
			}
		}
		if g == nil {
			if groups == nil {
				groups = make([]proofGroup, 0, 3) // the most a denial needs
			}
			groups = append(groups, proofGroup{owner: rr.Name})
			g = &groups[len(groups)-1]
		}
		if isSig {
			g.sigs = append(g.sigs, rr)
		} else {
			g.set = append(g.set, rr)
		}
	}
	signed := groups[:0]
	for _, g := range groups {
		if len(g.set) == 0 {
			orphan = true
			continue
		}
		signed = append(signed, g)
	}
	return signed, orphan
}

// establishKeys fetches and validates the DNSKEY RRset for zone against its
// DS set. It returns the trusted zone keys, or nil when the zone is
// insecure or bogus (conditions recorded). Results are cached.
func (st *resolution) establishKeys(zone dnswire.Name, dsSet []dnswire.DS, servers []netip.Addr) []dnswire.DNSKEY {
	r := st.r
	now := r.Now()
	if cached, ok := st.cachedKeys(zone, now); ok {
		if st.cur != nil {
			st.cur.Eventf("zone key cache: hit for %s (secure=%v, %d conditions replayed)",
				zone, cached.secure, len(cached.conditions))
		}
		for _, c := range cached.conditions {
			st.addCond(c, cached.detail)
		}
		if !cached.secure {
			return nil
		}
		return cached.keys
	}

	// The live key establishment gets its own span: the DNSKEY fetch, the
	// DS match, and the verdict all nest under it, so the trace shows which
	// zone's chain a validation failure belongs to.
	prevCur := st.cur
	var sp *telemetry.Span
	if prevCur != nil {
		sp = prevCur.Childf("validate DNSKEY %s (%d DS from parent)", zone, len(dsSet))
		st.cur = sp
	}

	before := len(st.conds)
	keys, conds, detail := st.fetchAndCheckKeys(zone, dsSet, servers)
	// Network failures during the DNSKEY fetch were recorded directly on
	// the resolution; fold them into the cached entry so later resolutions
	// through this zone see the same facts.
	conds = append(append([]Condition(nil), st.conds[before:]...), conds...)
	entry := &zoneKeys{
		keys: keys, secure: keys != nil,
		conditions: conds, detail: detail,
		expiresAt: now.Add(time.Hour),
	}
	st.storeKeys(zone, entry, now)
	for _, c := range conds {
		st.addCond(c, detail)
	}
	if sp != nil {
		switch {
		case keys != nil:
			sp.Eventf("verdict: DNSKEY RRset at %s validated against the DS (%d keys trusted)", zone, len(keys))
		case len(dsSet) == 0:
			sp.Eventf("verdict: %s is insecure (no DS at the parent)", zone)
		case detail != "":
			sp.Eventf("verdict: no trusted keys for %s — %s", zone, detail)
		default:
			sp.Eventf("verdict: no trusted keys for %s", zone)
		}
		sp.End()
		st.cur = prevCur
	}
	return keys
}

// fetchAndCheckKeys implements the key-establishment decision tree described
// in DESIGN.md: every branch corresponds to an observable protocol fact, and
// each of the paper's Table 3 group 2/5 subdomains lands in a distinct
// branch.
func (st *resolution) fetchAndCheckKeys(zone dnswire.Name, dsSet []dnswire.DS, servers []netip.Addr) (keys []dnswire.DNSKEY, conds []Condition, detail string) {
	r := st.r
	if len(dsSet) == 0 {
		return nil, nil, "" // insecure zone: no keys, no new conditions
	}
	sup := r.Profile.Support
	now := uint32(r.Now().Unix())

	// Algorithm support gate (RFC 4035 §5.2): if no DS uses an algorithm
	// and digest this validator implements, the zone is treated insecure.
	if cond, det, gated := dsSupportGate(dsSet, sup); gated {
		return nil, []Condition{cond}, det
	}

	resp, _, ok := st.queryServers(servers, zone, dnswire.TypeDNSKEY, true)
	if !ok {
		return nil, nil, "" // network conditions recorded by queryServers
	}
	keyRRs, keySigs := splitSection(resp.Answer, zone, dnswire.TypeDNSKEY)
	if len(keyRRs) == 0 {
		return nil, []Condition{ConditionDNSKEYUnobtainable},
			fmt.Sprintf("no DNSKEY RRset at %s", zone)
	}
	published := make([]dnswire.DNSKEY, 0, len(keyRRs))
	for _, rr := range keyRRs {
		published = append(published, rr.Data.(dnswire.DNSKEY))
	}
	inv := dnssec.Inventory(published, sup)
	m := dnssec.MatchDS(zone, dsSet, published, sup)

	switch {
	case !m.TagMatch && inv.ZoneKeys == 0 && inv.NonZoneKeys > 0:
		return nil, []Condition{ConditionNoZoneBitBoth},
			fmt.Sprintf("no DNSKEY at %s has the Zone Key bit set", zone)
	case !m.TagMatch:
		return nil, []Condition{ConditionDSNoMatchingKey},
			fmt.Sprintf("no SEP matching the DS found for %s", zone)
	case !m.DigestMatch:
		return nil, []Condition{ConditionDSDigestMismatch},
			fmt.Sprintf("DS digest does not match DNSKEY %d at %s", dsSet[0].KeyTag, zone)
	}

	chk := st.r.Cache.verified.CheckRRset(keyRRs, keySigs, []dnswire.DNSKEY{*m.MatchedKey}, now, sup)
	switch chk.Status {
	case dnssec.SigOK:
		// An advisory fact, recorded whatever the profile: only a profile
		// whose Map lists it (Cloudflare's, §4.2 item 3) reports it.
		if tag, found := standbyKSKWithoutSig(published, keySigs); found {
			return published, []Condition{ConditionStandbyKSKUnsigned},
				fmt.Sprintf("DNSKEY %d at %s has no covering RRSIG (key rollover in-progress, stand-by key, or attacker stripping signatures)", tag, zone)
		}
		return published, nil, ""
	case dnssec.SigMissing:
		return nil, []Condition{ConditionNoRRSIGDNSKEY},
			fmt.Sprintf("DNSKEY RRset at %s is unsigned", zone)
	case dnssec.SigNoMatchingKey:
		return nil, []Condition{ConditionNoRRSIGKSK},
			fmt.Sprintf("DNSKEY RRset at %s is not signed by the DS-matched key %d", zone, m.MatchedKey.KeyTag())
	case dnssec.SigExpired:
		return nil, []Condition{ConditionSigExpiredAll},
			fmt.Sprintf("RRSIGs at %s expired at %d", zone, chk.Expiration)
	case dnssec.SigNotYetValid:
		return nil, []Condition{ConditionSigNotYetAll},
			fmt.Sprintf("RRSIGs at %s valid from %d", zone, chk.Inception)
	case dnssec.SigExpiredBeforeValid:
		return nil, []Condition{ConditionSigExpBeforeAll},
			fmt.Sprintf("RRSIGs at %s expire (%d) before inception (%d)", zone, chk.Expiration, chk.Inception)
	case dnssec.SigUnsupportedAlg:
		return nil, []Condition{ConditionAlgUnsupported}, unsupportedDetail(chk, *m.MatchedKey, sup)
	default: // SigCryptoFailed
		full := st.r.Cache.verified.CheckRRset(keyRRs, keySigs, published, now, sup)
		if full.Status == dnssec.SigOK {
			return nil, []Condition{ConditionBadRRSIGKSK},
				fmt.Sprintf("signature by DS-matched key %d at %s is invalid", m.MatchedKey.KeyTag(), zone)
		}
		return nil, []Condition{ConditionBadRRSIGDNSKEY},
			fmt.Sprintf("all signatures over the DNSKEY RRset at %s are invalid", zone)
	}
}

// dsSupportGate inspects the DS set before any network work: unknown
// algorithm numbers, unsupported digests, and algorithms this validator does
// not implement all make the delegation insecure with distinct conditions.
func dsSupportGate(dsSet []dnswire.DS, sup dnssec.SupportSet) (Condition, string, bool) {
	allUnknownAlg, allUnsupportedAlg, allUnsupportedDigest := true, true, true
	var firstUnknown dnssec.Algorithm
	var deprecated bool
	for _, ds := range dsSet {
		alg := dnssec.Algorithm(ds.Algorithm)
		if alg.IsAssigned() {
			allUnknownAlg = false
			if sup.Supports(alg) {
				allUnsupportedAlg = false
			} else if alg == dnssec.AlgRSAMD5 || alg == dnssec.AlgDSA || alg == dnssec.AlgDSANSEC3SHA1 {
				deprecated = true
			}
		} else if firstUnknown == 0 {
			firstUnknown = alg
		}
		if sup.SupportsDigest(dnssec.DigestType(ds.DigestType)) {
			allUnsupportedDigest = false
		}
	}
	switch {
	case allUnknownAlg:
		if firstUnknown >= 128 {
			return ConditionDSReservedAlg,
				fmt.Sprintf("DS algorithm %d is reserved", firstUnknown), true
		}
		return ConditionDSUnassignedAlg,
			fmt.Sprintf("DS algorithm %d is unassigned", firstUnknown), true
	case allUnsupportedDigest:
		return ConditionDSUnsupportedDigest,
			fmt.Sprintf("DS digest type %d is not supported", dsSet[0].DigestType), true
	case allUnsupportedAlg:
		if deprecated {
			return ConditionAlgDeprecated, "no supported DNSKEY algorithm", true
		}
		return ConditionAlgUnsupported,
			fmt.Sprintf("unsupported DNSKEY algorithm %s", dnssec.Algorithm(dsSet[0].Algorithm)), true
	}
	return ConditionOK, "", false
}

// standbyKSKWithoutSig looks for a published SEP key with no covering RRSIG
// — the §4.2 item 3 stand-by key pattern.
func standbyKSKWithoutSig(keys []dnswire.DNSKEY, sigs []dnswire.RR) (uint16, bool) {
	signedBy := make(map[uint16]bool)
	for _, rr := range sigs {
		signedBy[rr.Data.(dnswire.RRSIG).KeyTag] = true
	}
	for _, k := range keys {
		if k.IsZoneKey() && k.IsSEP() && !signedBy[k.KeyTag()] {
			return k.KeyTag(), true
		}
	}
	return 0, false
}

func unsupportedDetail(chk dnssec.RRsetCheck, key dnswire.DNSKEY, sup dnssec.SupportSet) string {
	if sup.RSATooShort(key) {
		return "unsupported key size"
	}
	if len(chk.UnsupportedAlgs) > 0 {
		alg := chk.UnsupportedAlgs[0]
		switch alg {
		case dnssec.AlgECCGOST:
			return "unsupported DNSKEY algorithm GOST R 34.10-2001"
		case dnssec.AlgED448:
			return "unsupported DNSKEY algorithm Ed448"
		}
		return fmt.Sprintf("unsupported DNSKEY algorithm %s", alg)
	}
	return "no supported DNSKEY algorithm"
}
