package population

import (
	"bytes"
	"context"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extended-dns-errors/edelab/internal/authserver"
	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/fanout"
	"github.com/extended-dns-errors/edelab/internal/fnv1a"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// Timing constants shared by the wild infrastructure (same epoch as the
// testbed: valid signatures straddle ScanTime).
const (
	ScanTime       uint32 = 1750000000
	wildInception  uint32 = 1700000000
	wildExpiration uint32 = 1800000000
	pastInception  uint32 = 1600000000
	pastExpiration uint32 = 1650000000
	futInception   uint32 = 1900000000
	futExpiration  uint32 = 1950000000
)

// Wild is the materialized synthetic Internet: a signed root, one server
// per TLD, provider endpoints for healthy domains, and the §4.2 menagerie
// of broken nameservers.
type Wild struct {
	Net    *netsim.Network
	Roots  []netip.Addr
	Anchor []dnswire.DS
	Pop    *Population

	// offset shifts the scan instant; the scan harness advances it between
	// the cache-warmup pass and the measurement pass. It is an atomic
	// nanosecond count because every resolution reads the clock — a mutex
	// here was a global serialization point for the whole worker pool.
	offset atomic.Int64

	providers []netip.Addr
	// staleAddrs holds the dedicated dying endpoint of each ClassStale
	// domain — 32 of the paper's 303M, so it lives here, not in Domain.
	staleAddrs map[*Domain]netip.Addr
}

// Now is the wild clock (ScanTime plus any offset set by AdvanceClock).
func (w *Wild) Now() time.Time {
	return time.Unix(int64(ScanTime), 0).Add(time.Duration(w.offset.Load()))
}

// AdvanceClock moves the wild clock forward (used between the warmup and
// measurement passes so warmed cache entries expire into stale range).
func (w *Wild) AdvanceClock(d time.Duration) {
	w.offset.Add(int64(d))
}

// WarmupDomains lists the domains whose resolutions must be primed before
// the scan — the stale-answer class, standing in for the background client
// traffic that populated Cloudflare's shared cache in the real measurement.
func (w *Wild) WarmupDomains() []dnswire.Name {
	var out []dnswire.Name
	for _, d := range w.Pop.Domains {
		if d.Class == ClassStale {
			out = append(out, d.Name)
		}
	}
	return out
}

// Lookup returns the domain spec for a name. It needs no index: domain id
// sits at Pop.Domains[id-1], so the id is read back from the name and the
// stored name must equal the one asked for.
func (w *Wild) Lookup(name dnswire.Name) (*Domain, bool) {
	if id, ok := domainID(name); ok && id <= len(w.Pop.Domains) {
		if d := w.Pop.Domains[id-1]; d.Name == name {
			return d, true
		}
	}
	return nil, false
}

// Materialize wires the population onto a fresh simulated network. Every key
// generation and signature it needs is made up front, on every processor:
// the signed children's keys, each TLD server's keys and DS, then the root
// zone's RRSIGs (zone.Sign). Only the algorithm choice runs in domain order.
func Materialize(pop *Population) (*Wild, error) {
	w := &Wild{
		Net:        netsim.New(pop.Config.Seed ^ 0x57494C44), // "WILD"
		Pop:        pop,
		staleAddrs: make(map[*Domain]netip.Addr),
	}
	// Signing material for signed wild classes. The children with a DS are,
	// with the apex, the owners of their TLD's opt-out NSEC3 chain.
	children := childKeySpecs(pop)
	withDS := make(map[*TLD][]*Domain)
	for _, c := range children {
		withDS[c.d.TLD] = append(withDS[c.d.TLD], c.d)
	}
	tldServers := make([]*tldServer, len(pop.TLDs))
	err := fanout.Run(len(children)+len(pop.TLDs), func(i int) (err error) {
		if i < len(children) {
			return children[i].generate()
		}
		t := pop.TLDs[i-len(children)]
		tldServers[i-len(children)], err = newTLDServer(w, t, withDS[t])
		return err
	})
	if err != nil {
		return nil, err
	}

	// Provider pool for healthy domains.
	for i := 0; i < 16; i++ {
		w.providers = append(w.providers, netip.AddrFrom4([4]byte{198, 21, 0, byte(i + 1)}))
	}

	// Root zone with one delegation per TLD.
	rootAddr := netip.AddrFrom4([4]byte{198, 18, 0, 1})
	root := zone.New(dnswire.Root, 86400)
	root.AddNS(dnswire.MustName("a.root-servers.net"), rootAddr)
	for _, srv := range tldServers {
		t := srv.tld
		root.AddDelegation(t.Name, map[dnswire.Name][]netip.Addr{t.Name.Child("ns"): {t.Addr}})
		root.AddDS(t.Name, srv.ds)
	}
	if err := root.Sign(zone.SignOptions{
		Algorithm: dnssec.AlgED25519,
		Inception: wildInception, Expiration: wildExpiration,
	}); err != nil {
		return nil, err
	}
	anchor, err := root.DS(dnssec.DigestSHA256)
	if err != nil {
		return nil, err
	}
	w.Roots = []netip.Addr{rootAddr}
	w.Anchor = anchor
	w.Net.Register(rootAddr, authserver.New(root))
	for _, srv := range tldServers {
		w.Net.Register(srv.tld.Addr, srv)
	}

	// Provider endpoints.
	provider := &providerServer{wild: w}
	for _, addr := range w.providers {
		w.Net.Register(addr, provider)
	}
	// Shared special endpoints.
	w.Net.Register(invalidDataAddr, netsim.MismatchedQuestion(provider))
	w.Net.Register(notAuthAddr, netsim.StaticRCode(dnswire.RCodeNotAuth))

	// Broken nameservers.
	for _, ns := range pop.BrokenNS {
		switch ns.Behavior {
		case "refused":
			w.Net.Register(ns.Addr, netsim.StaticRCode(dnswire.RCodeRefused))
		case "servfail":
			w.Net.Register(ns.Addr, netsim.StaticRCode(dnswire.RCodeServFail))
		default:
			// timeout: leave unregistered — silence.
		}
	}

	// Dying endpoints for the stale class: answer once (the warmup), then
	// go dark.
	staleIdx := 0
	for _, d := range pop.Domains {
		if d.Class != ClassStale {
			continue
		}
		addr := netip.AddrFrom4([4]byte{198, 21, 1, byte(staleIdx%250 + 1)})
		staleIdx++
		var broken netsim.Handler
		if staleIdx%3 == 0 {
			broken = netsim.StaticRCode(dnswire.RCodeRefused) // → EDE 3,22,23
		} else {
			broken = netsim.Unresponsive() // → EDE 3,22
		}
		w.Net.Register(addr, netsim.DieAfter(1, provider, broken))
		w.staleAddrs[d] = addr
	}
	return w, nil
}

var invalidDataAddr = netip.AddrFrom4([4]byte{198, 21, 2, 1})
var notAuthAddr = netip.AddrFrom4([4]byte{198, 21, 2, 2})

// nsAddrsFor returns the nameserver addresses the TLD publishes as glue for
// a domain, ordered deterministically.
func (w *Wild) nsAddrsFor(d *Domain) []netip.Addr {
	switch d.Class {
	case ClassLameTimeout, ClassLameRefused, ClassLameServfail:
		return []netip.Addr{w.Pop.BrokenNS[d.BrokenNS].Addr}
	case ClassPartialUpstream:
		// Broken server listed first: the resolver hits it, records the
		// Network Error advisory, then succeeds on the provider.
		return []netip.Addr{w.Pop.BrokenNS[d.BrokenNS].Addr, w.providerFor(d)}
	case ClassInvalidData:
		return []netip.Addr{invalidDataAddr}
	case ClassCachedError:
		return []netip.Addr{notAuthAddr}
	case ClassStale:
		return []netip.Addr{w.staleAddrs[d]}
	default:
		return []netip.Addr{w.providerFor(d)}
	}
}

func (w *Wild) providerFor(d *Domain) netip.Addr {
	h := 0
	for _, c := range string(d.Name) {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return w.providers[h%len(w.providers)]
}

// childKeySpec is what a signed wild domain's keys must be, decided before
// any key is drawn.
type childKeySpec struct {
	d        *Domain
	alg      dnssec.Algorithm
	bits     int
	digest   dnssec.DigestType
	window   SigWindow
	mismatch bool
}

// childKeySpecs decides the key algorithm, DS digest and signature window of
// every signed wild domain. It walks the domains in order because the
// unsupported-algorithm class rotates through its causes by position.
func childKeySpecs(pop *Population) []childKeySpec {
	var specs []childKeySpec
	unsupportedRotation := 0
	for _, d := range pop.Domains {
		c := childKeySpec{d: d, digest: dnssec.DigestSHA256, window: WindowValid}
		switch d.Class {
		case ClassHealthySigned:
			c.alg = dnssec.AlgED25519
		case ClassSigExpired:
			c.alg, c.window = dnssec.AlgED25519, WindowExpired
		case ClassSigNotYet:
			c.alg, c.window = dnssec.AlgED25519, WindowFuture
		case ClassDNSKEYMismatch:
			c.alg, c.mismatch = dnssec.AlgED25519, true
		case ClassUnsupportedDigest:
			c.alg, c.digest = dnssec.AlgED25519, dnssec.DigestGOST
		case ClassUnsupportedAlg:
			// Rotate through the §4.2 item 7 causes: GOST, Ed448, weak RSA.
			switch unsupportedRotation % 3 {
			case 0:
				c.alg = dnssec.AlgECCGOST
			case 1:
				c.alg = dnssec.AlgED448
			default:
				c.alg, c.bits = dnssec.AlgRSASHA256, 512
			}
			unsupportedRotation++
		default:
			continue
		}
		specs = append(specs, c)
	}
	return specs
}

// generate draws the domain's keys and derives the DS its TLD publishes.
func (c childKeySpec) generate() error {
	ksk, err := dnssec.GenerateKey(c.alg, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, c.bits)
	if err != nil {
		return err
	}
	zsk, err := dnssec.GenerateKey(c.alg, dnswire.DNSKEYFlagZone, c.bits)
	if err != nil {
		return err
	}
	dsKey := ksk
	if c.mismatch {
		// The DS points at a retired key that is no longer published.
		if dsKey, err = dnssec.GenerateKey(c.alg, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, c.bits); err != nil {
			return err
		}
	}
	ds, err := dnssec.CreateDS(c.d.Name, dsKey.DNSKEY(), c.digest)
	if err != nil {
		return err
	}
	c.d.Keys = &ChildKeys{KSK: ksk, ZSK: zsk, DS: ds, DigestType: c.digest, Window: c.window}
	return nil
}

// --- TLD server: synthesizes referrals, DS records, and insecure proofs ---

type tldServer struct {
	wild *Wild
	tld  *TLD
	ksk  *dnssec.KeyPair
	zsk  *dnssec.KeyPair
	ds   dnswire.DS
	// standby is the published-but-unused KSK of a Standby TLD, else nil.
	standby *dnssec.KeyPair

	dnskeyOnce sync.Once
	dnskeyResp *dnswire.Message

	// withDS are the children that have a DS; chain is the opt-out NSEC3
	// chain over them and the apex, in hash order, built on first use.
	withDS    []*Domain
	chainOnce sync.Once
	chain     []*optOutLink
	apexLink  *optOutLink

	// signs counts the signatures this server has made.
	signs atomic.Uint64
}

func newTLDServer(w *Wild, t *TLD, withDS []*Domain) (*tldServer, error) {
	ksk, err := dnssec.GenerateKey(dnssec.AlgED25519, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, 0)
	if err != nil {
		return nil, err
	}
	zsk, err := dnssec.GenerateKey(dnssec.AlgED25519, dnswire.DNSKEYFlagZone, 0)
	if err != nil {
		return nil, err
	}
	ds, err := dnssec.CreateDS(t.Name, ksk.DNSKEY(), dnssec.DigestSHA256)
	if err != nil {
		return nil, err
	}
	var standby *dnssec.KeyPair
	if t.Standby {
		if standby, err = dnssec.GenerateKey(dnssec.AlgED25519, dnswire.DNSKEYFlagZone|dnswire.DNSKEYFlagSEP, 0); err != nil {
			return nil, err
		}
	}
	return &tldServer{wild: w, tld: t, ksk: ksk, zsk: zsk, ds: ds, standby: standby, withDS: withDS}, nil
}

// sign signs one of the zone's RRsets with key over the wild validity window.
func (s *tldServer) sign(set []dnswire.RR, key *dnssec.KeyPair) (dnswire.RR, error) {
	s.signs.Add(1)
	return dnssec.SignRRset(set, key, s.tld.Name, wildInception, wildExpiration)
}

// HandleDNS implements netsim.Handler.
func (s *tldServer) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	resp := q.Reply()
	if len(q.Question) != 1 {
		resp.RCode = dnswire.RCodeFormErr
		return resp, nil
	}
	question := q.Question[0]
	if !question.Name.IsSubdomainOf(s.tld.Name) {
		resp.RCode = dnswire.RCodeRefused
		return resp, nil
	}
	if question.Name == s.tld.Name {
		if question.Type == dnswire.TypeDNSKEY {
			return s.dnskeyAnswer(q), nil
		}
		// Anything else at the apex: NODATA without proof; the scan never
		// asks.
		return resp, nil
	}

	// Child query → referral.
	child := childOf(question.Name, s.tld.Name)
	domain, known := s.wild.Lookup(child)
	var glue []netip.Addr
	if known {
		glue = s.wild.nsAddrsFor(domain)
	} else {
		glue = []netip.Addr{s.wild.providers[0]}
	}
	for i, addr := range glue {
		host := child.Child("ns" + strconv.Itoa(i+1))
		resp.Authority = append(resp.Authority, dnswire.RR{
			Name: child, Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.NS{Host: host},
		})
		resp.Additional = append(resp.Additional, dnswire.RR{
			Name: host, Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.A{Addr: addr},
		})
	}

	if q.DO() {
		if known && domain.Keys != nil {
			s.attachDS(resp, child, domain.Keys.DS)
		} else {
			s.attachInsecureProof(resp, child)
		}
	}
	return resp, nil
}

// dnskeyAnswer serves the apex DNSKEY RRset, built and signed on first use.
func (s *tldServer) dnskeyAnswer(q *dnswire.Message) *dnswire.Message {
	s.dnskeyOnce.Do(func() {
		keys := []dnswire.RR{
			{Name: s.tld.Name, Class: dnswire.ClassIN, TTL: 3600, Data: s.ksk.DNSKEY()},
			{Name: s.tld.Name, Class: dnswire.ClassIN, TTL: 3600, Data: s.zsk.DNSKEY()},
		}
		if s.standby != nil {
			// Publish a stand-by KSK with no covering signature (§4.2
			// item 3): validators chain through the active key, Cloudflare
			// additionally reports RRSIGs Missing as an advisory.
			keys = append(keys, dnswire.RR{Name: s.tld.Name, Class: dnswire.ClassIN, TTL: 3600, Data: s.standby.DNSKEY()})
		}
		msg := &dnswire.Message{Response: true, Authoritative: true,
			Question: []dnswire.Question{{Name: s.tld.Name, Type: dnswire.TypeDNSKEY, Class: dnswire.ClassIN}},
			OPT:      &dnswire.OPT{UDPSize: 1232, DO: true},
		}
		msg.Answer = append(msg.Answer, keys...)
		for _, key := range []*dnssec.KeyPair{s.ksk, s.zsk} {
			if sig, err := s.sign(keys, key); err == nil {
				msg.Answer = append(msg.Answer, sig)
			}
		}
		s.dnskeyResp = msg
	})
	out := *s.dnskeyResp
	out.ID = q.ID
	return &out
}

func (s *tldServer) attachDS(resp *dnswire.Message, child dnswire.Name, ds dnswire.DS) {
	rr := dnswire.RR{Name: child, Class: dnswire.ClassIN, TTL: 3600, Data: ds}
	resp.Authority = append(resp.Authority, rr)
	if sig, err := s.sign([]dnswire.RR{rr}, s.zsk); err == nil {
		resp.Authority = append(resp.Authority, sig)
	}
}

// attachInsecureProof adds the records proving the delegation has no DS.
// NoProof TLDs omit them; BogusDenial TLDs corrupt their signatures.
//
// NSEC TLDs answer with an NSEC at the cut, which names the child and so is
// signed per child. NSEC3 TLDs are opt-out zones, as .com is: only the apex
// and the children with a DS own an NSEC3, and an unsigned child is proven
// by the apex NSEC3 (its closest encloser) plus the opt-out NSEC3 whose span
// covers the child's hash (RFC 5155 §7.2.4) — two records that thousands of
// unsigned children share, signed once.
func (s *tldServer) attachInsecureProof(resp *dnswire.Message, child dnswire.Name) {
	if s.tld.NoProof {
		return
	}
	if s.tld.NSECDenial {
		rec := dnswire.RR{
			Name: child, Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.NSEC{
				// The white lie: the name right after child in canonical
				// order, spelled in its canonical form directly.
				NextName: `\000.` + child,
				Types:    []dnswire.Type{dnswire.TypeNS, dnswire.TypeRRSIG, dnswire.TypeNSEC},
			},
		}
		resp.Authority = append(resp.Authority, rec)
		if sig, err := s.sign([]dnswire.RR{rec}, s.zsk); err == nil {
			resp.Authority = append(resp.Authority, s.maybeCorrupt(sig))
		}
		return
	}
	s.chainOnce.Do(s.buildChain)
	resp.Authority = append(resp.Authority, s.apexLink.records(s)...)
	if cover := s.covering(dnssec.NSEC3Hash(child, 0, nil)); cover != s.apexLink {
		resp.Authority = append(resp.Authority, cover.records(s)...)
	}
}

// maybeCorrupt returns sig as is, or with a broken signature on a
// BogusDenial TLD.
func (s *tldServer) maybeCorrupt(sig dnswire.RR) dnswire.RR {
	if !s.tld.BogusDenial {
		return sig
	}
	data := sig.Data.(dnswire.RRSIG)
	data.Signature = append([]byte(nil), data.Signature...)
	data.Signature[0] ^= 0xFF
	sig.Data = data
	return sig
}

// optOutLink is one NSEC3 of a TLD's opt-out chain. Its RRSIG is made the
// first time the link is served and both records are served as they are from
// then on.
type optOutLink struct {
	hash []byte
	nsec dnswire.RR

	once   sync.Once
	served []dnswire.RR // the NSEC3 and its RRSIG
}

func (l *optOutLink) records(s *tldServer) []dnswire.RR {
	l.once.Do(func() {
		l.served = []dnswire.RR{l.nsec}
		if sig, err := s.sign(l.served, s.zsk); err == nil {
			l.served = append(l.served, s.maybeCorrupt(sig))
		}
	})
	return l.served
}

// buildChain lays out the zone's NSEC3 chain: one link for the apex and one
// per child with a DS, in hash order, each pointing at the next and the last
// back at the first, all with the Opt-Out flag. Nothing is signed here.
func (s *tldServer) buildChain() {
	link := func(owner dnswire.Name, types ...dnswire.Type) *optOutLink {
		hash := dnssec.NSEC3Hash(owner, 0, nil)
		return &optOutLink{hash: hash, nsec: dnswire.RR{
			Name: s.tld.Name.Child(dnswire.Base32HexNoPad(hash)), Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.NSEC3{HashAlg: dnssec.NSEC3HashSHA1, Flags: dnswire.NSEC3FlagOptOut, Types: types},
		}}
	}
	s.apexLink = link(s.tld.Name, dnswire.TypeNS, dnswire.TypeSOA, dnswire.TypeRRSIG, dnswire.TypeDNSKEY, dnswire.TypeNSEC3PARAM)
	chain := []*optOutLink{s.apexLink}
	for _, d := range s.withDS {
		chain = append(chain, link(d.Name, dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeRRSIG))
	}
	sort.Slice(chain, func(i, j int) bool { return bytes.Compare(chain[i].hash, chain[j].hash) < 0 })
	for i, l := range chain {
		rec := l.nsec.Data.(dnswire.NSEC3)
		rec.NextHashed = chain[(i+1)%len(chain)].hash
		l.nsec.Data = rec
	}
	s.chain = chain
}

// covering returns the link whose span holds hash: the last one at or below
// it in hash order, or — before the first — the last link, whose span wraps.
func (s *tldServer) covering(hash []byte) *optOutLink {
	i := sort.Search(len(s.chain), func(i int) bool { return bytes.Compare(s.chain[i].hash, hash) > 0 })
	if i == 0 {
		i = len(s.chain)
	}
	return s.chain[i-1]
}

// childOf returns the direct child of tld on the path to name, which lies
// below tld: name with labels dropped from the left until its parent is tld.
func childOf(name, tld dnswire.Name) dnswire.Name {
	for p := name.Parent(); p != tld && !p.IsRoot(); p = name.Parent() {
		name = p
	}
	return name
}

// --- provider server: answers for healthy and signed wild domains ---

type providerServer struct {
	wild *Wild
}

// HandleDNS implements netsim.Handler.
func (s *providerServer) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	resp := q.Reply()
	if len(q.Question) != 1 {
		resp.RCode = dnswire.RCodeFormErr
		return resp, nil
	}
	question := q.Question[0]

	// Find the owning domain: the question is either the domain apex or a
	// host under it.
	domain, ok := s.wild.Lookup(question.Name)
	if !ok {
		domain, ok = s.wild.Lookup(question.Name.Parent())
	}
	if !ok {
		resp.RCode = dnswire.RCodeNXDomain
		resp.Authoritative = true
		return resp, nil
	}
	resp.Authoritative = true
	apex := domain.Name

	switch {
	case question.Name == apex && question.Type == dnswire.TypeA:
		if domain.Class == ClassIterLoop {
			resp.Answer = append(resp.Answer, dnswire.RR{
				Name: apex, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.CNAME{Target: apex.Child("loop")},
			})
			// The loop target aliases back to the apex.
			return resp, nil
		}
		a := dnswire.RR{Name: apex, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: addrForDomain(apex)}}
		resp.Answer = append(resp.Answer, a)
		if domain.Keys != nil && q.DO() {
			inc, exp := windowFor(domain.Keys.Window)
			if sig, err := dnssec.SignRRset([]dnswire.RR{a}, domain.Keys.ZSK, apex, inc, exp); err == nil {
				resp.Answer = append(resp.Answer, sig)
			}
		}
	case question.Type == dnswire.TypeA && question.Name == apex.Child("loop"):
		resp.Answer = append(resp.Answer, dnswire.RR{
			Name: question.Name, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.CNAME{Target: apex},
		})
	case question.Name == apex && question.Type == dnswire.TypeDNSKEY && domain.Keys != nil:
		keys := []dnswire.RR{
			{Name: apex, Class: dnswire.ClassIN, TTL: 300, Data: domain.Keys.KSK.DNSKEY()},
			{Name: apex, Class: dnswire.ClassIN, TTL: 300, Data: domain.Keys.ZSK.DNSKEY()},
		}
		resp.Answer = append(resp.Answer, keys...)
		if q.DO() {
			for _, key := range []*dnssec.KeyPair{domain.Keys.KSK, domain.Keys.ZSK} {
				if sig, err := dnssec.SignRRset(keys, key, apex, wildInception, wildExpiration); err == nil {
					resp.Answer = append(resp.Answer, sig)
				}
			}
		}
	case question.Type == dnswire.TypeA && question.Name.IsSubdomainOf(apex):
		// Nameserver host addresses.
		resp.Answer = append(resp.Answer, dnswire.RR{
			Name: question.Name, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: s.wild.providerFor(domain)},
		})
	default:
		// NODATA.
	}
	return resp, nil
}

func windowFor(w SigWindow) (uint32, uint32) {
	switch w {
	case WindowExpired:
		return pastInception, pastExpiration
	case WindowFuture:
		return futInception, futExpiration
	default:
		return wildInception, wildExpiration
	}
}

// addrForDomain derives a stable answer address.
func addrForDomain(n dnswire.Name) netip.Addr {
	h := fnv1a.Sum32(n)
	return netip.AddrFrom4([4]byte{203, 0, 113, byte(h%250 + 1)})
}

// RepairTopNameservers implements the paper's §4.2 item 2 counterfactual:
// "fixing 20k nameservers would render reachable more than 81% of domain
// names". The k busiest broken nameservers are re-registered as healthy
// providers answering for their stranded domains; a re-scan then measures
// the recovery directly instead of inferring it from the assignment table.
// It returns how many nameservers were repaired.
func (w *Wild) RepairTopNameservers(k int) int {
	// Order broken nameservers by stranded-domain count, descending.
	idx := make([]int, len(w.Pop.BrokenNS))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return w.Pop.BrokenNS[idx[a]].Domains > w.Pop.BrokenNS[idx[b]].Domains
	})
	provider := &providerServer{wild: w}
	repaired := 0
	for _, i := range idx {
		if repaired >= k || w.Pop.BrokenNS[i].Domains == 0 {
			break
		}
		w.Net.Register(w.Pop.BrokenNS[i].Addr, provider)
		repaired++
	}
	return repaired
}
