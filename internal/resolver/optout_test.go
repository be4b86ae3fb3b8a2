package resolver

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/telemetry"
)

// optOutFixture is an opt-out parent zone seen from the validator's side:
// its trusted key, one unsigned delegation, and the means to build the
// NSEC3 records a referral for that delegation may carry.
type optOutFixture struct {
	t      testing.TB
	zone   dnswire.Name
	child  dnswire.Name
	zsk    *dnssec.KeyPair
	now    uint32
	parent []dnswire.DS // non-empty: the parent zone is signed
}

func newOptOutFixture(t testing.TB) *optOutFixture {
	zsk, err := dnssec.GenerateKey(dnssec.AlgED25519, dnswire.DNSKEYFlagZone, 0)
	if err != nil {
		t.Fatal(err)
	}
	zone := dnswire.MustName("tld")
	return &optOutFixture{t: t, zone: zone, child: zone.Child("unsigned"), zsk: zsk,
		now: 1750000000, parent: []dnswire.DS{{KeyTag: 1, Algorithm: uint8(dnssec.AlgED25519), DigestType: 2}}}
}

// nsec3 builds one NSEC3 RR owned by ownerHash, unsigned.
func (f *optOutFixture) nsec3(ownerHash, next []byte, flags uint8, iter uint16, salt []byte, types ...dnswire.Type) dnswire.RR {
	return dnswire.RR{Name: f.zone.Child(dnswire.Base32HexNoPad(ownerHash)), Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.NSEC3{HashAlg: dnssec.NSEC3HashSHA1, Flags: flags, Iterations: iter, Salt: salt, NextHashed: next, Types: types}}
}

func (f *optOutFixture) sign(rr dnswire.RR) dnswire.RR {
	sig, err := dnssec.SignRRset([]dnswire.RR{rr}, f.zsk, f.zone, f.now-100, f.now+100)
	if err != nil {
		f.t.Fatal(err)
	}
	return sig
}

// encloser is the apex NSEC3 (the delegation's closest encloser) with a span
// that ends right after its own hash, so it covers nothing of interest.
func (f *optOutFixture) encloser(flags uint8, iter uint16, salt []byte) dnswire.RR {
	h := dnssec.NSEC3Hash(f.zone, iter, salt)
	return f.nsec3(h, hashPlus(h, 1), flags, iter, salt, dnswire.TypeNS, dnswire.TypeSOA, dnswire.TypeDNSKEY)
}

// cover is an NSEC3 whose span runs from just below the child's hash to
// just above it (or, with excludes, ends just below it).
func (f *optOutFixture) cover(flags uint8, iter uint16, salt []byte, excludes bool) dnswire.RR {
	h := dnssec.NSEC3Hash(f.child, iter, salt)
	owner, next := hashPlus(h, -2), hashPlus(h, 2)
	if excludes {
		next = hashPlus(h, -1)
	}
	return f.nsec3(owner, next, flags, iter, salt, dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeRRSIG)
}

// hashPlus returns h with delta added to its last octet (the fixtures never
// sit at an octet boundary that would carry).
func hashPlus(h []byte, delta int) []byte {
	out := append([]byte(nil), h...)
	out[len(out)-1] = byte(int(out[len(out)-1]) + delta)
	return out
}

func flipSignature(sig dnswire.RR) dnswire.RR {
	data := sig.Data.(dnswire.RRSIG)
	data.Signature = append([]byte(nil), data.Signature...)
	data.Signature[0] ^= 0xFF
	sig.Data = data
	return sig
}

// evaluate runs evaluateDelegation over a referral carrying proof, with the
// parent's key already trusted, and returns the conditions it recorded.
func (f *optOutFixture) evaluate(proof ...dnswire.RR) *resolution {
	r := New(nil, nil, nil, ProfileCloudflare())
	r.Now = func() time.Time { return time.Unix(int64(f.now), 0) }
	r.Cache.putKeys(f.zone, &zoneKeys{keys: []dnswire.DNSKEY{f.zsk.DNSKEY()}, secure: true,
		expiresAt: r.Now().Add(time.Hour)}, r.Now())
	st := &resolution{r: r, ctx: context.Background()}
	resp := &dnswire.Message{Response: true, Authority: append([]dnswire.RR{{
		Name: f.child, Class: dnswire.ClassIN, TTL: 3600, Data: dnswire.NS{Host: f.child.Child("ns1")},
	}}, proof...)}
	ds, secure := st.evaluateDelegation(resp, f.zone, f.parent, true, f.child, nil)
	if ds != nil || secure {
		f.t.Errorf("an unsigned delegation came back with DS=%v secure=%t", ds, secure)
	}
	return st
}

// TestOptOutReferralProof drives the RFC 5155 §8.9 branch of
// evaluateDelegation over hand-built referrals: one valid proof, and every
// way of falling short of it. A short proof is reported exactly as the
// matching-NSEC3 branch reports its failures — same two conditions, same
// EXTRA-TEXT — and never as an insecure delegation.
func TestOptOutReferralProof(t *testing.T) {
	f := newOptOutFixture(t)
	const optOut = dnswire.NSEC3FlagOptOut
	ce, cv := f.encloser(optOut, 0, nil), f.cover(optOut, 0, nil, false)
	missing := fmt.Sprintf("failed to verify an insecure referral proof for %s", f.child)
	bogus := func(status dnssec.SigStatus) string {
		return fmt.Sprintf("insecure referral proof for %s failed validation: %s", f.child, status)
	}
	matching := f.nsec3(dnssec.NSEC3Hash(f.child, 0, nil), hashPlus(dnssec.NSEC3Hash(f.child, 0, nil), 1), 0, 0, nil,
		dnswire.TypeNS, dnswire.TypeDS)
	// Matching NSEC3s that deny the DS but under parameters the validator
	// does not hash with: skipped, not believed.
	const overCap = dnssec.MaxNSEC3Iterations + 1
	costly := f.nsec3(dnssec.NSEC3Hash(f.child, overCap, nil), hashPlus(dnssec.NSEC3Hash(f.child, overCap, nil), 1), 0, overCap, nil,
		dnswire.TypeNS)
	unknownAlg := f.nsec3(dnssec.NSEC3Hash(f.child, 0, nil), hashPlus(dnssec.NSEC3Hash(f.child, 0, nil), 1), 0, 0, nil, dnswire.TypeNS)
	alg2 := unknownAlg.Data.(dnswire.NSEC3)
	alg2.HashAlg = 2
	unknownAlg.Data = alg2
	saltedCover := f.cover(optOut, 0, []byte{0xAB}, false)
	iteratedCover := f.cover(optOut, 3, nil, false)
	noFlagCover := f.cover(0, 0, nil, false)
	shortCover := f.cover(optOut, 0, nil, true)
	// One record that both matches the apex and, wrapping, covers the child.
	apexHash := dnssec.NSEC3Hash(f.zone, 0, nil)
	single := f.nsec3(apexHash, apexHash, optOut, 0, nil, dnswire.TypeNS, dnswire.TypeSOA)

	cases := []struct {
		name   string
		proof  []dnswire.RR
		want   Condition
		detail string
	}{
		{"valid proof", []dnswire.RR{ce, f.sign(ce), cv, f.sign(cv)}, ConditionInsecure, ""},
		{"cover listed first", []dnswire.RR{cv, f.sign(cv), ce, f.sign(ce)}, ConditionInsecure, ""},
		{"one NSEC3 is encloser and cover", []dnswire.RR{single, f.sign(single)}, ConditionInsecure, ""},
		{"cover without the Opt-Out flag", []dnswire.RR{ce, f.sign(ce), noFlagCover, f.sign(noFlagCover)},
			ConditionReferralProofMissing, missing},
		{"cover span excludes the child", []dnswire.RR{ce, f.sign(ce), shortCover, f.sign(shortCover)},
			ConditionReferralProofMissing, missing},
		{"closest-encloser NSEC3 absent", []dnswire.RR{cv, f.sign(cv)}, ConditionReferralProofMissing, missing},
		{"cover absent", []dnswire.RR{ce, f.sign(ce)}, ConditionReferralProofMissing, missing},
		{"salt differs across the two", []dnswire.RR{ce, f.sign(ce), saltedCover, f.sign(saltedCover)},
			ConditionReferralProofMissing, missing},
		{"iterations differ across the two", []dnswire.RR{ce, f.sign(ce), iteratedCover, f.sign(iteratedCover)},
			ConditionReferralProofMissing, missing},
		{"encloser RRSIG stripped", []dnswire.RR{ce, cv, f.sign(cv)}, ConditionReferralProofBogus, bogus(dnssec.SigMissing)},
		{"cover RRSIG stripped", []dnswire.RR{ce, f.sign(ce), cv}, ConditionReferralProofBogus, bogus(dnssec.SigMissing)},
		{"encloser RRSIG bit-flipped", []dnswire.RR{ce, flipSignature(f.sign(ce)), cv, f.sign(cv)},
			ConditionReferralProofBogus, bogus(dnssec.SigCryptoFailed)},
		{"cover RRSIG bit-flipped", []dnswire.RR{ce, f.sign(ce), cv, flipSignature(f.sign(cv))},
			ConditionReferralProofBogus, bogus(dnssec.SigCryptoFailed)},
		{"RRSIG without its NSEC3", []dnswire.RR{ce, f.sign(ce), f.sign(cv)}, ConditionReferralProofMissing, missing},
		{"matching NSEC3 over the iteration cap", []dnswire.RR{costly, f.sign(costly)}, ConditionReferralProofMissing, missing},
		{"matching NSEC3 under an unassigned hash algorithm", []dnswire.RR{unknownAlg, f.sign(unknownAlg)},
			ConditionReferralProofMissing, missing},
		{"matching NSEC3 asserts a DS", []dnswire.RR{ce, f.sign(ce), cv, f.sign(cv), matching, f.sign(matching)},
			ConditionReferralProofBogus, fmt.Sprintf("insecure referral proof for %s asserts a DS exists", f.child)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := f.evaluate(c.proof...)
			if len(st.conds) != 1 || st.conds[0] != c.want {
				t.Fatalf("conditions = %v, want [%s]", st.conds, c.want)
			}
			if got := st.details[c.want]; got != c.detail {
				t.Errorf("detail = %q, want %q", got, c.detail)
			}
		})
	}
}

// A proof whose signatures have been remembered is still checked against the
// clock: past expiration the same referral is bogus, not insecure.
func TestOptOutProofExpiresWhenMemoised(t *testing.T) {
	f := newOptOutFixture(t)
	ce, cv := f.encloser(dnswire.NSEC3FlagOptOut, 0, nil), f.cover(dnswire.NSEC3FlagOptOut, 0, nil, false)
	proof := []dnswire.RR{ce, f.sign(ce), cv, f.sign(cv)}

	r := New(nil, nil, nil, ProfileCloudflare())
	clock := int64(f.now)
	r.Now = func() time.Time { return time.Unix(clock, 0) }
	r.Cache.putKeys(f.zone, &zoneKeys{keys: []dnswire.DNSKEY{f.zsk.DNSKEY()}, secure: true,
		expiresAt: time.Unix(clock, 0).Add(time.Hour)}, time.Unix(clock, 0))
	resp := &dnswire.Message{Response: true, Authority: proof}
	run := func() []Condition {
		st := &resolution{r: r, ctx: context.Background()}
		st.evaluateDelegation(resp, f.zone, f.parent, true, f.child, nil)
		return st.conds
	}
	for i := 0; i < 2; i++ {
		if conds := run(); len(conds) != 1 || conds[0] != ConditionInsecure {
			t.Fatalf("pass %d: %v", i, conds)
		}
	}
	reg := telemetry.NewRegistry()
	r.RegisterMetrics(reg)
	verifies, _ := reg.Value("edelab_dnssec_verifies_total")
	hits, _ := reg.Value("edelab_dnssec_verify_memo_hits_total")
	if verifies != 2 || hits != 2 {
		t.Fatalf("after two passes: %v verifies and %v memo hits, want 2 and 2", verifies, hits)
	}
	clock += 200 // the fixtures' signatures run to now+100
	if conds := run(); len(conds) != 1 || conds[0] != ConditionReferralProofBogus {
		t.Errorf("memoised proof past expiration: %v, want referral-proof-bogus", conds)
	}
}

// FuzzOptOutProof mutates the NSEC3 fields of a valid two-record proof and
// holds the validator to the one property that matters: it reports an
// insecure delegation only when a correctly signed NSEC3 matches the closest
// encloser and a correctly signed Opt-Out NSEC3 with the same parameters
// covers the child — recomputed here independently of optOutProof.
func FuzzOptOutProof(f *testing.F) {
	f.Add(uint8(1), uint16(0), []byte(nil), 0, 0, uint8(1), uint16(0), []byte(nil), -2, 2, false, false)
	f.Add(uint8(0), uint16(0), []byte(nil), 0, 0, uint8(0), uint16(0), []byte(nil), -2, 2, false, false)           // no Opt-Out
	f.Add(uint8(1), uint16(0), []byte(nil), 0, 0, uint8(1), uint16(0), []byte(nil), -2, -1, false, false)          // span ends early
	f.Add(uint8(1), uint16(0), []byte(nil), 0, 0, uint8(1), uint16(0), []byte(nil), 1, 3, false, false)            // span starts late
	f.Add(uint8(1), uint16(0), []byte(nil), 1, 0, uint8(1), uint16(0), []byte(nil), -2, 2, false, false)           // encloser off by one
	f.Add(uint8(1), uint16(0), []byte{0xAB}, 0, 0, uint8(1), uint16(0), []byte(nil), -2, 2, false, false)          // salt mismatch
	f.Add(uint8(1), uint16(2), []byte(nil), 0, 0, uint8(1), uint16(0), []byte(nil), -2, 2, false, false)           // iteration mismatch
	f.Add(uint8(1), uint16(2), []byte{1, 2}, 0, 0, uint8(1), uint16(2), []byte{1, 2}, -2, 2, false, false)         // salted, valid
	f.Add(uint8(1), uint16(0), []byte(nil), 0, 0, uint8(1), uint16(0), []byte(nil), -2, 2, true, false)            // encloser signature broken
	f.Add(uint8(1), uint16(0), []byte(nil), 0, 0, uint8(1), uint16(0), []byte(nil), -2, 2, false, true)            // cover signature broken
	f.Add(uint8(1), uint16(0), []byte(nil), 0, 0, uint8(1), uint16(0), []byte(nil), 0, 2, false, false)            // "cover" matches the child
	f.Add(uint8(0xFF), uint16(600), []byte(nil), 0, 0, uint8(0xFF), uint16(600), []byte(nil), -2, 2, false, false) // iterations past the cap

	fix := newOptOutFixture(f)
	f.Fuzz(func(t *testing.T, ceFlags uint8, ceIter uint16, ceSalt []byte, ceOwnerDelta, ceNextDelta int,
		cvFlags uint8, cvIter uint16, cvSalt []byte, cvOwnerDelta, cvNextDelta int, breakCE, breakCV bool) {
		if ceIter > 700 || cvIter > 700 || len(ceSalt) > 32 || len(cvSalt) > 32 {
			return // keep each execution cheap; the cap itself is seeded above
		}
		fix.t = t
		clamp := func(d int) int { return max(-3, min(3, d)) }
		apex := dnssec.NSEC3Hash(fix.zone, ceIter, ceSalt)
		ce := fix.nsec3(hashPlus(apex, clamp(ceOwnerDelta)), hashPlus(apex, clamp(ceNextDelta)+1), ceFlags, ceIter, ceSalt, dnswire.TypeNS)
		childHash := dnssec.NSEC3Hash(fix.child, cvIter, cvSalt)
		cvOwner, cvNext := hashPlus(childHash, clamp(cvOwnerDelta)), hashPlus(childHash, clamp(cvNextDelta))
		cv := fix.nsec3(cvOwner, cvNext, cvFlags, cvIter, cvSalt, dnswire.TypeNS)
		ceSig, cvSig := fix.sign(ce), fix.sign(cv)
		if breakCE {
			ceSig = flipSignature(ceSig)
		}
		if breakCV {
			cvSig = flipSignature(cvSig)
		}
		st := fix.evaluate(ce, ceSig, cv, cvSig)

		// The oracle: which of the two records can play which part, worked
		// out from the constructed values alone.
		ceOwner, ceNext := hashPlus(apex, clamp(ceOwnerDelta)), hashPlus(apex, clamp(ceNextDelta)+1)
		ceIsEncloser := clamp(ceOwnerDelta) == 0 && ceIter <= dnssec.MaxNSEC3Iterations
		sameParams := ceIter == cvIter && bytes.Equal(ceSalt, cvSalt)
		pairWithCV := ceIsEncloser && sameParams && cvFlags&dnswire.NSEC3FlagOptOut != 0 &&
			dnssec.CoversHash(cvOwner, cvNext, childHash)
		pairWithItself := ceIsEncloser && ceFlags&dnswire.NSEC3FlagOptOut != 0 &&
			dnssec.CoversHash(ceOwner, ceNext, dnssec.NSEC3Hash(fix.child, ceIter, ceSalt))
		cvMatchesChild := clamp(cvOwnerDelta) == 0 // a matching NSEC3 without DS: the older branch's proof
		sound := (cvMatchesChild && !breakCV) || (pairWithCV && !breakCE && !breakCV) || (pairWithItself && !breakCE)
		complete := !breakCE && !breakCV && (cvMatchesChild || pairWithCV || pairWithItself)
		insecure := len(st.conds) == 1 && st.conds[0] == ConditionInsecure
		if insecure && !sound {
			t.Fatalf("insecure without a valid proof (encloser=%t sameParams=%t pairWithCV=%t pairWithItself=%t cvMatchesChild=%t breakCE=%t breakCV=%t)",
				ceIsEncloser, sameParams, pairWithCV, pairWithItself, cvMatchesChild, breakCE, breakCV)
		}
		if complete && !insecure {
			t.Fatalf("a valid, correctly signed proof was refused: %v %v", st.conds, st.details)
		}
		if !insecure && (len(st.conds) != 1 ||
			(st.conds[0] != ConditionReferralProofMissing && st.conds[0] != ConditionReferralProofBogus)) {
			t.Fatalf("a failed proof recorded %v, want exactly one of referral-proof-missing/-bogus", st.conds)
		}
	})
}
