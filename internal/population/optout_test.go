package population

import (
	"context"
	"slices"
	"sync"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/resolver"
)

func wildResolver(w *Wild) *resolver.Resolver {
	r := resolver.New(w.Net, w.Roots, w.Anchor, resolver.ProfileCloudflare())
	r.Now = w.Now
	return r
}

func tldServerOf(t *testing.T, w *Wild, tld *TLD) *tldServer {
	t.Helper()
	h, ok := w.Net.HandlerAt(tld.Addr)
	if !ok {
		t.Fatalf("no server registered for %s", tld.Name)
	}
	return h.(*tldServer)
}

// TestOptOutChainAmortisesInsecureProofs resolves every unsigned child of one
// large NSEC3 TLD. The TLD signs each link of its opt-out chain at most once,
// the validator verifies each at most once, and — the figure the scan's cost
// follows — verifications per resolution fall from about one to under 0.05.
func TestOptOutChainAmortisesInsecureProofs(t *testing.T) {
	pop := Generate(Config{TotalDomains: 40000, Seed: 77})
	w, err := Materialize(pop)
	if err != nil {
		t.Fatal(err)
	}
	// The largest ordinary NSEC3 TLD that also has signed children, so the
	// chain has more than the apex link.
	perTLD := make(map[*TLD][2]int) // unsigned, signed
	for _, d := range pop.Domains {
		n := perTLD[d.TLD]
		if d.Keys == nil {
			n[0]++
		} else {
			n[1]++
		}
		perTLD[d.TLD] = n
	}
	var tld *TLD
	for _, cand := range pop.TLDs {
		if cand.NSECDenial || cand.special() || perTLD[cand][1] == 0 {
			continue
		}
		if tld == nil || perTLD[cand][0] > perTLD[tld][0] {
			tld = cand
		}
	}
	if tld == nil || perTLD[tld][0] < 2000 {
		t.Fatalf("no NSEC3 TLD with 2,000 unsigned children and a signed one (best: %v)", tld)
	}

	r := wildResolver(w)
	ctx := context.Background()
	resolved := 0
	for _, d := range pop.Domains {
		if d.TLD != tld || d.Keys != nil {
			continue
		}
		res := r.Resolve(ctx, d.Name, dnswire.TypeA)
		resolved++
		if !slices.Contains(res.Conditions, resolver.ConditionInsecure) {
			t.Fatalf("%s (%s): conditions %v lack the proven-insecure delegation", d.Name, d.Class, res.Conditions)
		}
	}

	srv := tldServerOf(t, w, tld)
	links := len(srv.chain)
	if links != 1+perTLD[tld][1] {
		t.Errorf("chain of %s has %d links, want the apex plus its %d children with a DS", tld.Name, links, perTLD[tld][1])
	}
	// The DNSKEY RRset takes two signatures (KSK and ZSK); everything else
	// this server signed is a chain link.
	if signs := srv.signs.Load(); signs > uint64(links)+2 {
		t.Errorf("%s made %d signatures for %d resolutions; its chain has %d links", tld.Name, signs, resolved, links)
	}
	// Beyond the chain: the root's DNSKEY RRset, the TLD's DS, the TLD's
	// DNSKEY RRset.
	stats := r.Cache.VerifyStats()
	if stats.Verifies > uint64(links)+3 {
		t.Errorf("%d verifications for %d resolutions; the chain has %d links", stats.Verifies, resolved, links)
	}
	if vpr := r.VerifiesPerResolution(); vpr >= 0.05 {
		t.Errorf("%.3f verifies/resolution over %d unsigned children of %s, want under 0.05", vpr, resolved, tld.Name)
	}
	t.Logf("%s: %d resolutions, chain of %d links, %d signatures, %+v, %.4f verifies/resolution", tld.Name, resolved, links, srv.signs.Load(), stats, r.VerifiesPerResolution())
	if stats.MemoHits < uint64(resolved) {
		t.Errorf("%d memo hits over %d resolutions: the proofs are not being recognised", stats.MemoHits, resolved)
	}
}

// TestOptOutChainIsWellFormed checks the chain against RFC 5155: hash order,
// each link pointing at the next and the last at the first, Opt-Out set
// throughout, DS only on the children's links — and that covering returns
// the link whose span holds a hash.
func TestOptOutChainIsWellFormed(t *testing.T) {
	w := smallWild(t)
	for _, tld := range w.Pop.TLDs {
		if tld.NSECDenial || tld.NoProof {
			continue
		}
		srv := tldServerOf(t, w, tld)
		srv.chainOnce.Do(srv.buildChain)
		if len(srv.chain) != 1+len(srv.withDS) {
			t.Fatalf("%s: %d links for %d children with a DS", tld.Name, len(srv.chain), len(srv.withDS))
		}
		for i, l := range srv.chain {
			next := srv.chain[(i+1)%len(srv.chain)]
			rec := l.nsec.Data.(dnswire.NSEC3)
			if rec.Flags&dnswire.NSEC3FlagOptOut == 0 {
				t.Errorf("%s link %d lacks the Opt-Out flag", tld.Name, i)
			}
			if string(rec.NextHashed) != string(next.hash) {
				t.Errorf("%s link %d does not point at link %d", tld.Name, i, (i+1)%len(srv.chain))
			}
			if i > 0 && string(srv.chain[i-1].hash) >= string(l.hash) {
				t.Errorf("%s links %d and %d out of hash order", tld.Name, i-1, i)
			}
			if hasDS := slices.Contains(rec.Types, dnswire.TypeDS); hasDS == (l == srv.apexLink) {
				t.Errorf("%s link %d: DS in bitmap = %t, apex = %t", tld.Name, i, hasDS, l == srv.apexLink)
			}
			if got := srv.covering(append(append([]byte(nil), l.hash...), 0)); got != l {
				t.Errorf("%s: a hash just above link %d is covered by another link", tld.Name, i)
			}
		}
		if got := srv.covering(make([]byte, 20)); got != srv.chain[len(srv.chain)-1] {
			t.Errorf("%s: the lowest hash is not covered by the wrapping last link", tld.Name)
		}
	}
}

// TestBrokenTLDsFailEveryQuery: a TLD that serves corrupted proofs answers
// EDE 6 and one that serves none EDE 12 on every query — distinct children
// and the same child again — because only verified signatures are
// remembered and failed referrals are never cached.
func TestBrokenTLDsFailEveryQuery(t *testing.T) {
	// 1,158 gTLDs put one plain-NSEC and one NSEC3 TLD in the bogus-denial
	// set (NSEC is every third gTLD by index; the set sits 30 from the end).
	w, err := Materialize(Generate(Config{TotalDomains: 1515, Seed: 77, gTLDs: 1158}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	byFlavour := map[string][]*Domain{}
	for _, d := range w.Pop.Domains {
		key := ""
		switch {
		case d.Class == ClassBogusTLD && d.TLD.NSECDenial:
			key = "bogus NSEC TLD"
		case d.Class == ClassBogusTLD:
			key = "bogus NSEC3 TLD"
		case d.Class == ClassNSECMissingTLD:
			key = "no-proof TLD"
		default:
			continue
		}
		// Stay within one TLD per flavour so repeated queries share its chain.
		if have := byFlavour[key]; len(have) < 3 && (len(have) == 0 || have[0].TLD == d.TLD) {
			byFlavour[key] = append(have, d)
		}
	}
	for _, c := range []struct {
		flavour string
		code    uint16
	}{{"bogus NSEC3 TLD", 6}, {"bogus NSEC TLD", 6}, {"no-proof TLD", 12}} {
		doms := byFlavour[c.flavour]
		if len(doms) == 0 {
			t.Fatalf("no domain under a %s", c.flavour)
		}
		r := wildResolver(w)
		r.AnswerCacheReadOnly = true // the second ask of a name must reach the TLD again
		queries := append(append([]*Domain(nil), doms...), doms...)
		for i, d := range queries {
			before := r.Cache.VerifyStats().Verifies
			res := r.Resolve(ctx, d.Name, dnswire.TypeA)
			if !slices.Contains(res.Codes(), c.code) || res.Msg.RCode != dnswire.RCodeServFail {
				t.Errorf("%s, query %d (%s): rcode %s codes %v, want SERVFAIL with EDE %d",
					c.flavour, i, d.Name, res.Msg.RCode, res.Codes(), c.code)
			}
			if c.code == 6 && i > 0 && r.Cache.VerifyStats().Verifies == before {
				t.Errorf("%s, query %d (%s): the corrupted proof was not verified again", c.flavour, i, d.Name)
			}
		}
	}
}

// TestOptOutChainConcurrentFirstUse hits one cold TLD from many goroutines at
// once: the chain is built once, each link signed once, and every referral
// carries the same records.
func TestOptOutChainConcurrentFirstUse(t *testing.T) {
	w := smallWild(t)
	// The ordinary NSEC3 TLD with the most unsigned children.
	unsigned := make(map[*TLD][]*Domain)
	for _, d := range w.Pop.Domains {
		if d.Keys == nil && !d.TLD.NSECDenial && !d.TLD.special() {
			unsigned[d.TLD] = append(unsigned[d.TLD], d)
		}
	}
	var tld *TLD
	for _, cand := range w.Pop.TLDs {
		if len(unsigned[cand]) > len(unsigned[tld]) {
			tld = cand
		}
	}
	children := unsigned[tld]
	if len(children) < 8 {
		t.Fatalf("only %d unsigned children under %v", len(children), tld)
	}
	proofs := make([][]dnswire.RR, len(children))
	var wg sync.WaitGroup
	for i, d := range children {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _, err := w.Net.Exchange(context.Background(), tld.Addr, dnswire.NewQuery(uint16(i), d.Name, dnswire.TypeA))
			if err != nil {
				t.Error(err)
				return
			}
			for _, rr := range resp.Authority {
				if rr.Type() == dnswire.TypeNSEC3 || rr.Type() == dnswire.TypeRRSIG {
					proofs[i] = append(proofs[i], rr)
				}
			}
		}()
	}
	wg.Wait()
	srv := tldServerOf(t, w, tld)
	if signs, links := srv.signs.Load(), uint64(len(srv.chain)); signs > links {
		t.Errorf("%d signatures for a chain of %d links", signs, links)
	}
	for i, p := range proofs {
		if len(p) != 2 && len(p) != 4 {
			t.Fatalf("%s: %d proof records, want an NSEC3+RRSIG pair or two", children[i].Name, len(p))
		}
		if p[0].String() != proofs[0][0].String() || p[1].String() != proofs[0][1].String() {
			t.Errorf("%s: closest-encloser records differ from the first referral's", children[i].Name)
		}
	}
}
