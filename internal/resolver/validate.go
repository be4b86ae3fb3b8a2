package resolver

import (
	"bytes"
	"fmt"
	"net/netip"
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
// EXTRA-TEXT backing for each condition.
func walkConds(inherited []condRecord, observed []Condition, details map[Condition]string) []condRecord {
	if len(inherited) == 0 && len(observed) == 0 {
		return nil
	}
	out := append([]condRecord(nil), inherited...)
	for _, c := range observed {
		dup := false
		for _, have := range out {
			if have.cond == c {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, condRecord{cond: c, detail: details[c]})
		}
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
	for _, g := range collectNSEC(resp.Authority) {
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
	nsec3s, bad := collectNSEC3(resp.Authority)
	if len(nsec3s) == 0 || bad {
		return missing()
	}
	for _, grp := range nsec3s {
		rec := grp.set[0].Data.(dnswire.NSEC3)
		if grp.set[0].Name != dnssec.NSEC3HashName(child, parent, rec.Iterations, rec.Salt) {
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
	encloser, cover, ok := optOutProof(nsec3s, parent, child)
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

// optOutProof finds, among a referral's NSEC3 RRsets, the RFC 5155 §8.9
// proof that child is an unsigned delegation of an opt-out zone: one NSEC3
// matching the closest encloser of child inside zone, and one with the
// Opt-Out flag covering the next closer name, both under the same hash
// parameters. The caller validates the two RRsets' signatures.
func optOutProof(nsec3s []nsec3Group, zone, child dnswire.Name) (encloser, cover nsec3Group, ok bool) {
	for _, ce := range nsec3s {
		params := ce.set[0].Data.(dnswire.NSEC3)
		if params.HashAlg != dnssec.NSEC3HashSHA1 || params.Iterations > dnssec.MaxNSEC3Iterations {
			continue
		}
		// Walk up from the delegation to the apex: the first ancestor this
		// NSEC3 matches is the closest encloser it can vouch for, and the
		// name one label below it is the next closer name.
		nextCloser := child
		for n := child.Parent(); ; nextCloser, n = n, n.Parent() {
			if ce.set[0].Name == dnssec.NSEC3HashName(n, zone, params.Iterations, params.Salt) {
				h := dnssec.NSEC3Hash(nextCloser, params.Iterations, params.Salt)
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
	return nsec3Group{}, nsec3Group{}, false
}

// nsec3OwnerHash decodes the hash an NSEC3 owner name carries as its single
// label below zone; nil when owner is not such a name.
func nsec3OwnerHash(owner, zone dnswire.Name) []byte {
	suffix := "." + string(zone)
	if zone.IsRoot() {
		suffix = "."
	}
	label, ok := strings.CutSuffix(string(owner), suffix)
	if !ok {
		return nil
	}
	// The error only says the label is no hash — a bad digit, a dot, an
	// escape — which the nil result already tells the caller.
	hash, _ := dnswire.DecodeBase32Hex(label)
	return hash
}

// nsec3Group is one NSEC3 RRset with its signatures.
type nsec3Group struct {
	set  []dnswire.RR
	sigs []dnswire.RR
}

// collectNSEC3 groups NSEC3 records (and their RRSIGs) by owner.
func collectNSEC3(rrs []dnswire.RR) ([]nsec3Group, bool) {
	byOwner := make(map[dnswire.Name]*nsec3Group)
	var order []dnswire.Name
	get := func(n dnswire.Name) *nsec3Group {
		g, ok := byOwner[n]
		if !ok {
			g = &nsec3Group{}
			byOwner[n] = g
			order = append(order, n)
		}
		return g
	}
	for _, rr := range rrs {
		switch d := rr.Data.(type) {
		case dnswire.NSEC3:
			g := get(rr.Name)
			g.set = append(g.set, rr)
			_ = d
		case dnswire.RRSIG:
			if d.TypeCovered == dnswire.TypeNSEC3 {
				g := get(rr.Name)
				g.sigs = append(g.sigs, rr)
			}
		}
	}
	var out []nsec3Group
	bad := false
	for _, n := range order {
		g := byOwner[n]
		if len(g.set) == 0 {
			bad = true // RRSIG without its record
			continue
		}
		out = append(out, *g)
	}
	return out, bad
}

// establishKeys fetches and validates the DNSKEY RRset for zone against its
// DS set. It returns the trusted zone keys, or nil when the zone is
// insecure or bogus (conditions recorded). Results are cached.
func (st *resolution) establishKeys(zone dnswire.Name, dsSet []dnswire.DS, servers []netip.Addr) []dnswire.DNSKEY {
	r := st.r
	now := r.Now()
	if cached, ok := r.Cache.getKeys(zone, now); ok {
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
	r.Cache.putKeys(zone, entry)
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
		conds = nil
		if r.Profile.AdvisoryStandbyKSK {
			if tag, found := standbyKSKWithoutSig(published, keySigs); found {
				conds = append(conds, ConditionStandbyKSKUnsigned)
				detail = fmt.Sprintf("DNSKEY %d at %s has no covering RRSIG (key rollover in-progress, stand-by key, or attacker stripping signatures)", tag, zone)
			}
		}
		return published, conds, detail
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
