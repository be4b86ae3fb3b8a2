package resolver

import (
	"fmt"
	"net/netip"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// handleAuthoritative validates a final (non-referral) response from the
// zone's authoritative servers and produces the client-visible outcome.
func (st *resolution) handleAuthoritative(resp *dnswire.Message, srv netip.Addr, zoneName dnswire.Name, dsForZone []dnswire.DS, chainSecure bool, qname dnswire.Name, qtype dnswire.Type, cnameDepth int) ([]dnswire.RR, dnswire.RCode, bool) {
	signed := chainSecure && len(dsForZone) > 0

	var keys []dnswire.DNSKEY
	if signed {
		keys = st.establishKeys(zoneName, dsForZone, []netip.Addr{srv})
		if keys == nil {
			if worstClass(st.conds) == ClassLame || st.abortOnBogus() {
				return nil, dnswire.RCodeServFail, false
			}
			// Insecure outcome from the support gate (unsupported
			// algorithms) — or a CD client riding past a bogus key set:
			// the answer is accepted without validation.
			signed = false
		}
	}

	// CNAME chase: if the answer aliases qname, restart at the target.
	if target, ok := cnameTarget(resp, qname, qtype); ok {
		if cnameDepth >= maxCNAME {
			st.addCond(ConditionIterationLimit, "iteration limit exceeded")
			return nil, dnswire.RCodeServFail, false
		}
		if signed {
			set, sigs := splitSection(resp.Answer, qname, dnswire.TypeCNAME)
			st.checkAnswerRRset(set, sigs, keys, resp.Authority)
			if st.abortOnBogus() {
				return nil, dnswire.RCodeServFail, false
			}
		}
		tail, rcode, secure := st.resolve(target, qtype, cnameDepth+1)
		cname, _ := splitSection(resp.Answer, qname, dnswire.TypeCNAME)
		return append(cname, tail...), rcode, secure && signed
	}

	switch resp.RCode {
	case dnswire.RCodeNXDomain:
		if signed {
			st.validateDenial(resp, zoneName, keys, qname, true)
		}
		if st.abortOnBogus() {
			return nil, dnswire.RCodeServFail, false
		}
		return nil, dnswire.RCodeNXDomain, signed
	case dnswire.RCodeNoError:
		set, sigs := splitSection(resp.Answer, qname, qtype)
		if len(set) == 0 {
			// NODATA.
			if signed {
				st.validateDenial(resp, zoneName, keys, qname, false)
			}
			if st.abortOnBogus() {
				return nil, dnswire.RCodeServFail, false
			}
			return nil, dnswire.RCodeNoError, signed
		}
		secure := false
		if signed {
			secure = st.checkAnswerRRset(set, sigs, keys, resp.Authority)
			if st.abortOnBogus() {
				return nil, dnswire.RCodeServFail, false
			}
		}
		out := set
		if len(sigs) > 0 {
			out = append(out, sigs...)
		}
		return out, dnswire.RCodeNoError, secure
	default:
		st.addCond(ConditionUnreachableServfail,
			fmt.Sprintf("%s:53 rcode=%s for %s %s", srv, resp.RCode, qname, qtype))
		return nil, dnswire.RCodeServFail, false
	}
}

func cnameTarget(resp *dnswire.Message, qname dnswire.Name, qtype dnswire.Type) (dnswire.Name, bool) {
	if qtype == dnswire.TypeCNAME {
		return "", false
	}
	for _, rr := range resp.Answer {
		if c, ok := rr.Data.(dnswire.CNAME); ok && rr.Name == qname {
			return c.Target, true
		}
	}
	return "", false
}

// checkAnswerRRset validates a positive answer RRset and derives the
// answer-stage conditions of Table 3 groups 3 and 5. Returns true when the
// set validated.
func (st *resolution) checkAnswerRRset(set, sigs []dnswire.RR, keys []dnswire.DNSKEY, authority []dnswire.RR) bool {
	now := uint32(st.r.Now().Unix())
	sup := st.r.Profile.Support
	chk := st.r.Cache.verified.CheckRRset(set, sigs, keys, now, sup)
	owner := set[0].Name

	if st.cur != nil {
		st.cur.Eventf("answer RRset %s %s: signature verdict %s (%d sigs, %d keys)",
			owner, set[0].Type(), chk.Status, len(sigs), len(keys))
	}

	switch chk.Status {
	case dnssec.SigOK:
		if chk.Wildcard && !st.wildcardCovered(owner, keys, authority) {
			// A wildcard-synthesized answer without the proof that the
			// exact name does not exist is a substitution attack
			// (RFC 4035 §5.3.4).
			st.addCond(ConditionNSEC3BadHash,
				fmt.Sprintf("wildcard-expanded answer for %s lacks a non-existence proof", owner))
			return false
		}
		return true
	case dnssec.SigMissing:
		st.addCond(ConditionRRSIGMissingAnswer,
			fmt.Sprintf("no RRSIG covering %s %s", owner, set[0].Type()))
	case dnssec.SigExpired:
		st.addCond(ConditionSigExpiredAnswer,
			fmt.Sprintf("RRSIG over %s expired at %d", owner, chk.Expiration))
	case dnssec.SigNotYetValid:
		st.addCond(ConditionSigNotYetAnswer,
			fmt.Sprintf("RRSIG over %s valid from %d", owner, chk.Inception))
	case dnssec.SigExpiredBeforeValid:
		st.addCond(ConditionSigExpBeforeAnswer,
			fmt.Sprintf("RRSIG over %s expires before inception", owner))
	case dnssec.SigCryptoFailed:
		st.addCond(ConditionAnswerSigInvalid,
			fmt.Sprintf("RRSIG over %s failed verification", owner))
	case dnssec.SigUnsupportedAlg:
		st.addCond(ConditionAlgUnsupported, unsupportedAnswerDetail(chk, keys, sup))
	case dnssec.SigNoMatchingKey:
		st.addCond(st.classifyMissingKey(sigs, keys), "")
	}
	return false
}

// wildcardCovered checks the RFC 4035 §5.3.4 requirement on
// wildcard-expanded answers: the response's authority section must carry a
// validly signed NSEC or NSEC3 record covering the exact query name.
func (st *resolution) wildcardCovered(owner dnswire.Name, keys []dnswire.DNSKEY, authority []dnswire.RR) bool {
	now := uint32(st.r.Now().Unix())
	sup := st.r.Profile.Support

	nsec3s, _ := collectProofs(authority, dnswire.TypeNSEC3)
	for _, g := range nsec3s {
		if len(g.sigs) == 0 {
			continue
		}
		if chk := st.r.Cache.verified.CheckRRset(g.set, g.sigs, keys, now, sup); chk.Status != dnssec.SigOK {
			continue
		}
		rec := g.set[0].Data.(dnswire.NSEC3)
		labels := g.set[0].Name.Labels()
		ownerHash, err := dnswire.DecodeBase32Hex(labels[0])
		h := dnssec.NSEC3Hash(owner, rec.Iterations, rec.Salt)
		if err == nil && dnssec.CoversHash(ownerHash, rec.NextHashed, h) {
			return true
		}
	}
	nsecs, _ := collectProofs(authority, dnswire.TypeNSEC)
	for _, g := range nsecs {
		if len(g.sigs) == 0 {
			continue
		}
		if chk := st.r.Cache.verified.CheckRRset(g.set, g.sigs, keys, now, sup); chk.Status != dnssec.SigOK {
			continue
		}
		rec := g.set[0].Data.(dnswire.NSEC)
		ow := g.set[0].Name
		ltOwner := ow.Compare(owner) < 0
		ltNext := owner.Compare(rec.NextName) < 0
		if (ow.Compare(rec.NextName) < 0 && ltOwner && ltNext) ||
			(ow.Compare(rec.NextName) > 0 && (ltOwner || ltNext)) {
			return true
		}
	}
	return false
}

// classifyMissingKey tells apart the paper's DNSKEY-shape misconfigurations
// when an answer signature references no usable key: the distinctions are
// all observable facts about the published DNSKEY RRset.
func (st *resolution) classifyMissingKey(sigs []dnswire.RR, keys []dnswire.DNSKEY) Condition {
	inv := dnssec.Inventory(keys, st.r.Profile.Support)
	var sigAlg uint8
	for _, rr := range sigs {
		sigAlg = rr.Data.(dnswire.RRSIG).Algorithm
		break
	}
	// A published key lost its Zone Key bit (no-dnskey-256).
	if inv.NonZoneKeys > 0 {
		return ConditionNoZoneBitZSK
	}
	// A zone key advertises an unassigned/reserved algorithm number.
	for _, k := range keys {
		if !k.IsZoneKey() || k.IsSEP() {
			continue
		}
		alg := dnssec.Algorithm(k.Algorithm)
		if !alg.IsAssigned() {
			if alg >= 128 {
				return ConditionReservedZSKAlgo
			}
			return ConditionUnassignedZSKAlgo
		}
	}
	// No non-SEP zone key at all (no-zsk).
	if inv.NonSEPKeys == 0 {
		return ConditionNoZSK
	}
	// A ZSK exists but with a different algorithm than the signature
	// (bad-zsk-algo) or simply a different key (bad-zsk).
	for _, k := range keys {
		if k.IsZoneKey() && !k.IsSEP() && k.Algorithm != sigAlg {
			return ConditionBadZSKAlgo
		}
	}
	return ConditionBadZSK
}

func unsupportedAnswerDetail(chk dnssec.RRsetCheck, keys []dnswire.DNSKEY, sup dnssec.SupportSet) string {
	for _, k := range keys {
		if sup.RSATooShort(k) {
			return "unsupported key size"
		}
	}
	if len(chk.UnsupportedAlgs) > 0 {
		return fmt.Sprintf("unsupported DNSKEY algorithm %s", chk.UnsupportedAlgs[0])
	}
	return "no supported DNSKEY algorithm"
}

// validateDenial checks a negative response's NSEC3 proof and derives the
// Table 3 group 4 conditions.
func (st *resolution) validateDenial(resp *dnswire.Message, zoneName dnswire.Name, keys []dnswire.DNSKEY, qname dnswire.Name, nxdomain bool) {
	now := uint32(st.r.Now().Unix())
	sup := st.r.Profile.Support

	soaSet, soaSigs := splitSection(resp.Authority, zoneName, dnswire.TypeSOA)
	nsec3s, _ := collectProofs(resp.Authority, dnswire.TypeNSEC3)
	nsecs, _ := collectProofs(resp.Authority, dnswire.TypeNSEC)

	if st.cur != nil {
		st.cur.Eventf("validating denial for %s (nxdomain=%v): %d NSEC3 groups, %d NSEC groups, SOA present=%v",
			qname, nxdomain, len(nsec3s), len(nsecs), len(soaSet) > 0)
	}

	if len(soaSet) == 0 && len(nsec3s) == 0 && len(nsecs) == 0 {
		st.addCond(ConditionDenialBare,
			fmt.Sprintf("empty negative response for %s", qname))
		return
	}
	if len(nsecs) > 0 && len(nsec3s) == 0 {
		// Plain NSEC denial (RFC 4035 §3.1.3).
		st.validateNSECDenial(nsecs, zoneName, keys, qname, nxdomain)
		return
	}
	if len(nsec3s) == 0 {
		if len(soaSigs) == 0 {
			st.addCond(ConditionDenialUnsignedSOA,
				fmt.Sprintf("unsigned negative response for %s", qname))
			return
		}
		soaChk := st.r.Cache.verified.CheckRRset(soaSet, soaSigs, keys, now, sup)
		if soaChk.Status != dnssec.SigOK {
			st.addCond(ConditionDenialUnsignedSOA,
				fmt.Sprintf("negative response SOA for %s failed validation", qname))
			return
		}
		st.addCond(ConditionNSEC3Missing,
			fmt.Sprintf("no NSEC3 proof in negative response for %s", qname))
		return
	}

	// Parameter consistency: every NSEC3 in one zone must share salt and
	// iteration count (RFC 5155 §7.1); validators discard mismatched sets.
	type params struct {
		iter uint16
		salt string
	}
	seen := make(map[params]bool)
	var iter uint16
	var salt []byte
	for _, g := range nsec3s {
		rec := g.set[0].Data.(dnswire.NSEC3)
		seen[params{rec.Iterations, string(rec.Salt)}] = true
		iter, salt = rec.Iterations, rec.Salt
	}
	if len(seen) > 1 {
		st.addCond(ConditionNSEC3ParamMismatch,
			fmt.Sprintf("NSEC3 records for %s disagree on parameters", qname))
		return
	}
	if iter > dnssec.MaxNSEC3Iterations {
		st.addCond(ConditionNSEC3IterTooHigh,
			fmt.Sprintf("NSEC3 iterations %d above limit", iter))
		return
	}

	// Signature validation over each NSEC3 RRset.
	for _, g := range nsec3s {
		if len(g.sigs) == 0 {
			st.addCond(ConditionNSEC3RRSIGMissing,
				fmt.Sprintf("NSEC3 %s is unsigned", g.set[0].Name))
			return
		}
		chk := st.r.Cache.verified.CheckRRset(g.set, g.sigs, keys, now, sup)
		if chk.Status != dnssec.SigOK {
			st.addCond(ConditionNSEC3BadRRSIG,
				fmt.Sprintf("RRSIG over NSEC3 %s failed validation (%s)", g.set[0].Name, chk.Status))
			return
		}
	}

	matches := func(n dnswire.Name) bool {
		h := dnssec.NSEC3Hash(n, iter, salt)
		for _, g := range nsec3s {
			if nsec3OwnerIs(g.set[0].Name, zoneName, h) {
				return true
			}
		}
		return false
	}
	covers := func(n dnswire.Name) bool {
		h := dnssec.NSEC3Hash(n, iter, salt)
		for _, g := range nsec3s {
			rec := g.set[0].Data.(dnswire.NSEC3)
			if owner := nsec3OwnerHash(g.set[0].Name, zoneName); owner != nil && dnssec.CoversHash(owner, rec.NextHashed, h) {
				return true
			}
		}
		return false
	}

	if !nxdomain {
		// NODATA: the proof is an NSEC3 matching qname whose bitmap lacks
		// the type (we do not re-check the bitmap here; the server built
		// it). A missing match degenerates to the closest-encloser logic.
		if matches(qname) {
			return
		}
	}

	// Closest-encloser proof (RFC 5155 §7.2.1).
	ce := qname.Parent()
	for !matches(ce) {
		if ce == zoneName || ce.IsRoot() {
			break
		}
		ce = ce.Parent()
	}
	if !matches(ce) {
		st.addCond(ConditionNSEC3BadHash,
			fmt.Sprintf("no closest encloser for %s in NSEC3 proof", qname))
		return
	}
	nextCloser := qname
	for nextCloser.Parent() != ce && !nextCloser.IsRoot() {
		nextCloser = nextCloser.Parent()
	}
	if !covers(nextCloser) {
		st.addCond(ConditionNSEC3BadNext,
			fmt.Sprintf("next closer name %s not covered by NSEC3 proof", nextCloser))
		return
	}
	// Wildcard cover is required for a complete NXDOMAIN proof; treat a
	// missing one like a next-cover failure.
	if nxdomain && !covers(ce.Child("*")) && !matches(ce.Child("*")) {
		st.addCond(ConditionNSEC3BadNext,
			fmt.Sprintf("wildcard at %s not covered by NSEC3 proof", ce))
	}
}

// validateNSECDenial checks a plain NSEC proof: signatures first, then a
// match (NODATA) or covering span (NXDOMAIN) for qname. Failures map to the
// same conditions as the NSEC3 cases — the vendor codes in Table 4 do not
// distinguish the denial flavour.
func (st *resolution) validateNSECDenial(nsecs []proofGroup, zoneName dnswire.Name, keys []dnswire.DNSKEY, qname dnswire.Name, nxdomain bool) {
	now := uint32(st.r.Now().Unix())
	sup := st.r.Profile.Support
	for _, g := range nsecs {
		if len(g.sigs) == 0 {
			st.addCond(ConditionNSEC3RRSIGMissing,
				fmt.Sprintf("NSEC %s is unsigned", g.set[0].Name))
			return
		}
		chk := st.r.Cache.verified.CheckRRset(g.set, g.sigs, keys, now, sup)
		if chk.Status != dnssec.SigOK {
			st.addCond(ConditionNSEC3BadRRSIG,
				fmt.Sprintf("RRSIG over NSEC %s failed validation (%s)", g.set[0].Name, chk.Status))
			return
		}
	}
	matches := func(n dnswire.Name) bool {
		for _, g := range nsecs {
			if g.set[0].Name == n {
				return true
			}
		}
		return false
	}
	covers := func(n dnswire.Name) bool {
		for _, g := range nsecs {
			owner := g.set[0].Name
			next := g.set[0].Data.(dnswire.NSEC).NextName
			ltOwner := owner.Compare(n) < 0
			ltNext := n.Compare(next) < 0
			switch {
			case owner.Compare(next) < 0:
				if ltOwner && ltNext {
					return true
				}
			case owner.Compare(next) > 0:
				if ltOwner || ltNext {
					return true
				}
			}
		}
		return false
	}
	if !nxdomain {
		if matches(qname) {
			return
		}
	}
	if !covers(qname) && !matches(qname) {
		st.addCond(ConditionNSEC3BadNext,
			fmt.Sprintf("%s not covered by NSEC proof", qname))
	}
}
