// Package population synthesizes the registered-domain population behind the
// paper's Internet-wide scan (Section 4): 1,475 TLDs with a heavy-tailed
// size distribution, misconfiguration classes injected at the paper's
// measured rates, broken-nameserver concentration matching §4.2 item 2, and
// a Tranco-like popularity ranking (§4.3).
//
// Substitution note (DESIGN.md §2): the paper's per-class counts are
// properties of the May 2023 Internet and are *inputs* here, taken from
// §4.2; what the reproduction demonstrates is the pipeline (scan → EDE
// extraction → aggregation) and the resulting distributions' shapes. The
// default scale is 1:1,000 (303,000 domains). Classes whose paper count is
// below the scale resolution are floored at one domain so every §4.2 code
// path is exercised; EXPERIMENTS.md records the resulting inflation.
package population

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/netip"
	"sort"
	"strconv"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// Class is a wild-domain misconfiguration class, one per §4.2 item (plus
// splits where one item covers several network behaviours).
type Class uint8

// Classes and the EDE codes they lead to under the Cloudflare profile.
const (
	// ClassHealthy resolves cleanly (unsigned).
	ClassHealthy Class = iota
	// ClassHealthySigned resolves cleanly with a validated chain.
	ClassHealthySigned
	// ClassLameTimeout: all nameservers silent → EDE 22.
	ClassLameTimeout
	// ClassLameRefused: all nameservers REFUSED → EDE 22,23.
	ClassLameRefused
	// ClassLameServfail: all nameservers SERVFAIL → EDE 22,23.
	ClassLameServfail
	// ClassPartialUpstream: one nameserver REFUSED, another answers →
	// NOERROR with EDE 23.
	ClassPartialUpstream
	// ClassStandby: healthy domain under a TLD publishing a stand-by KSK →
	// NOERROR with EDE 10.
	ClassStandby
	// ClassDNSKEYMismatch: parent DS matches no child DNSKEY → EDE 9.
	ClassDNSKEYMismatch
	// ClassBogusTLD: the TLD serves invalid referral proofs → EDE 6.
	ClassBogusTLD
	// ClassInvalidData: nameserver returns mismatched questions → EDE 24.
	ClassInvalidData
	// ClassUnsupportedAlg: GOST/Ed448/512-bit keys → EDE 1 (NOERROR).
	ClassUnsupportedAlg
	// ClassSigExpired: answer signatures expired → EDE 7.
	ClassSigExpired
	// ClassNSECMissingTLD: TLD referral lacks the insecure proof → EDE 12.
	ClassNSECMissingTLD
	// ClassUnsupportedDigest: GOST DS digest → EDE 2 (NOERROR).
	ClassUnsupportedDigest
	// ClassStale: nameservers died after caches were warmed → EDE 3 (+22).
	ClassStale
	// ClassSigNotYet: answer signatures from the future → EDE 8.
	ClassSigNotYet
	// ClassCachedError: nameservers answer NOTAUTH → EDE 13.
	ClassCachedError
	// ClassIterLoop: CNAME loops exhaust the work budget → EDE 0.
	ClassIterLoop

	numClasses
)

var classNames = map[Class]string{
	ClassHealthy:           "healthy",
	ClassHealthySigned:     "healthy-signed",
	ClassLameTimeout:       "lame-timeout",
	ClassLameRefused:       "lame-refused",
	ClassLameServfail:      "lame-servfail",
	ClassPartialUpstream:   "partial-upstream",
	ClassStandby:           "standby-ksk",
	ClassDNSKEYMismatch:    "dnskey-mismatch",
	ClassBogusTLD:          "bogus-tld-denial",
	ClassInvalidData:       "invalid-data",
	ClassUnsupportedAlg:    "unsupported-algorithm",
	ClassSigExpired:        "signature-expired",
	ClassNSECMissingTLD:    "nsec-missing-referral",
	ClassUnsupportedDigest: "unsupported-ds-digest",
	ClassStale:             "stale-answer",
	ClassSigNotYet:         "signature-not-yet-valid",
	ClassCachedError:       "cached-error",
	ClassIterLoop:          "iteration-loop",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// PaperTotal is the paper's scanned population (§4.1).
const PaperTotal = 303_000_000

// paperCounts are the §4.2 class sizes at full (303M) scale. The lame split
// derives from the paper's set algebra: |EDE22| = 13,965,865,
// |EDE23| = 11,647,551, |22 ∪ 23| = 14.8M ⇒ |22 ∩ 23| = 10,813,416.
var paperCounts = map[Class]int{
	ClassLameTimeout:       3_152_449, // 22 only
	ClassLameRefused:       9_948_343, // 22+23, REFUSED (92% of the intersection)
	ClassLameServfail:      865_073,   // 22+23, SERVFAIL
	ClassPartialUpstream:   834_135,   // 23 only
	ClassStandby:           2_746_604, // item 3
	ClassDNSKEYMismatch:    296_643,   // item 4
	ClassBogusTLD:          82_465,    // item 5
	ClassInvalidData:       12_268,    // item 6
	ClassUnsupportedAlg:    8_751,     // item 7
	ClassSigExpired:        2_877,     // item 8
	ClassNSECMissingTLD:    1_980,     // item 9
	ClassUnsupportedDigest: 62,        // item 10
	ClassStale:             32,        // item 11
	ClassSigNotYet:         29,        // item 12
	ClassCachedError:       8,         // item 13
	ClassIterLoop:          7,         // item 14
}

// Config parameterizes population generation.
type Config struct {
	// TotalDomains is the population size (default 303,000 = 1:1,000).
	TotalDomains int
	// Seed drives all pseudo-random choices; same seed, same population.
	Seed uint64
	// gTLDs is the generic TLD count: 1,160 (with the ccTLDs, 1,475 TLDs),
	// which only this package's tests change.
	gTLDs int
}

const (
	// ccTLDs is the country-code TLD count.
	ccTLDs = 315
	// healthySignedFraction of healthy domains get a validated DNSSEC chain
	// (exercises validation throughout the scan).
	healthySignedFraction = 0.002
)

func (c *Config) setDefaults() {
	if c.TotalDomains == 0 {
		c.TotalDomains = PaperTotal / 1000
	}
	if c.gTLDs == 0 {
		c.gTLDs = 1160
	}
}

// TLD is one top-level domain in the synthetic root.
type TLD struct {
	Name  dnswire.Name
	Label string
	CC    bool
	// Standby marks TLDs publishing a stand-by KSK (EDE 10 for every
	// resolution through them).
	Standby bool
	// BogusDenial marks TLDs whose referral proofs are invalid (EDE 6).
	BogusDenial bool
	// NoProof marks TLDs whose referrals omit the insecure proof (EDE 12).
	NoProof bool
	// Clean marks TLDs guaranteed free of misconfigured domains.
	Clean bool
	// AllBroken marks the Figure 1 extreme: every domain misconfigured.
	AllBroken bool
	// NSECDenial marks TLDs that prove unsigned delegations with plain
	// NSEC instead of NSEC3 (as the real root and several TLDs do).
	NSECDenial bool

	Domains int // number of registered domains
	Addr    netip.Addr
}

// Domain is one registered domain of the synthetic population. A scan holds
// every one of them for its whole run, so the struct is kept to 48 bytes:
// narrow integers, and nothing that only a handful of domains need.
type Domain struct {
	Name dnswire.Name
	TLD  *TLD
	// Keys holds DNSSEC material for signed classes (lazily built wild
	// servers share it with the TLD's DS synthesis).
	Keys *ChildKeys
	// Rank is the Tranco-style popularity rank (0 = unranked).
	Rank int32
	// BrokenNS indexes Population.BrokenNS for lame classes, else -1.
	BrokenNS int32
	Class    Class
}

// ChildKeys is the signing material of a signed wild domain.
type ChildKeys struct {
	KSK, ZSK *dnssec.KeyPair
	// DS is what the TLD publishes; for ClassDNSKEYMismatch it derives
	// from a retired key.
	DS dnswire.DS
	// DigestType of the published DS.
	DigestType dnssec.DigestType
	// Window selects the RRSIG validity window for answer records.
	Window SigWindow
}

// SigWindow selects answer-signature timing.
type SigWindow int

// Signature windows.
const (
	WindowValid SigWindow = iota
	WindowExpired
	WindowFuture
)

// BrokenNS is one malfunctioning nameserver of §4.2 item 2.
type BrokenNS struct {
	Addr netip.Addr
	// Behavior: "refused", "servfail", or "timeout".
	Behavior string
	// Domains served by this nameserver (for the fix-top-k analysis).
	Domains int
}

// Population is the generated synthetic registry.
type Population struct {
	Config   Config
	TLDs     []*TLD
	Domains  []*Domain
	BrokenNS []BrokenNS
	// TrancoSize is the length of the popularity ranking (scaled 1M).
	TrancoSize int
	// Scale is TotalDomains / 303M.
	Scale float64
}

// NameIter yields the population's registered-domain names one at a time in
// generation order. It satisfies scan.NameSource, so a wild scan can stream
// the population without first materializing a []Name the size of the zone
// file (303M names at full scale). Next is not safe for concurrent use; the
// streaming scanner serializes its calls.
type NameIter struct {
	domains []*Domain
	i       int
}

// Next returns the next domain name, or ok=false when exhausted.
func (it *NameIter) Next() (dnswire.Name, bool) {
	if it.i >= len(it.domains) {
		return "", false
	}
	n := it.domains[it.i].Name
	it.i++
	return n, true
}

// Len reports how many names remain.
func (it *NameIter) Len() int { return len(it.domains) - it.i }

// Skip advances past the next n names (or to the end if fewer remain): a
// resumed campaign shard skips the prefix its checkpoint already folded.
func (it *NameIter) Skip(n int) {
	if n < 0 {
		n = 0
	}
	it.i += n
	if it.i > len(it.domains) {
		it.i = len(it.domains)
	}
}

// Lookup returns the domain spec for a name. It allocates nothing.
func (p *Population) Lookup(name dnswire.Name) (*Domain, bool) {
	if i, ok := p.Index(name); ok {
		return p.Domains[i], true
	}
	return nil, false
}

// Index returns the position of name's domain in Domains. It needs no map:
// domain id sits at Domains[id-1], so the id is read back from the name and
// the stored name must equal the one asked for. It allocates nothing.
func (p *Population) Index(name dnswire.Name) (int, bool) {
	if id, ok := domainID(name); ok && id <= len(p.Domains) && p.Domains[id-1].Name == name {
		return id - 1, true
	}
	return -1, false
}

// Names returns a fresh iterator over the population's domains.
func (p *Population) Names() *NameIter { return &NameIter{domains: p.Domains} }

// NamesRange returns a fresh iterator over domains[lo:hi) in generation
// order — one campaign shard's slice of the population. Bounds are clamped
// to the domain list.
func (p *Population) NamesRange(lo, hi int) *NameIter {
	if lo < 0 {
		lo = 0
	}
	if hi > len(p.Domains) {
		hi = len(p.Domains)
	}
	if lo > hi {
		lo = hi
	}
	return &NameIter{domains: p.Domains[lo:hi]}
}

// ClassQuota returns the scaled target count for class c: round(paper×scale)
// floored at 1 for classes the paper observed at all.
func ClassQuota(c Class, scale float64) int {
	n := paperCounts[c]
	if n == 0 {
		return 0
	}
	scaled := int(math.Round(float64(n) * scale))
	if scaled < 1 {
		scaled = 1
	}
	return scaled
}

// Generate builds the population deterministically from cfg.
func Generate(cfg Config) *Population {
	cfg.setDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xA5A5A5A5DEADBEEF))
	scale := float64(cfg.TotalDomains) / float64(PaperTotal)

	p := &Population{Config: cfg, Scale: scale}
	p.TrancoSize = int(math.Round(1_000_000 * scale))
	if p.TrancoSize < 100 {
		p.TrancoSize = 100
	}

	p.buildTLDs(cfg, rng, scale)
	p.buildDomains()
	p.assignClasses(rng, scale)
	p.assignBrokenNS(rng)
	p.assignTranco(rng)
	return p
}

// buildTLDs creates the TLD list: sizes, special sets, addresses.
func (p *Population) buildTLDs(cfg Config, rng *rand.Rand, scale float64) {
	total := cfg.gTLDs + ccTLDs
	p.TLDs = make([]*TLD, 0, total)
	addrIdx := 0
	nextAddr := func() netip.Addr {
		addrIdx++
		return netip.AddrFrom4([4]byte{198, 19, byte(addrIdx / 250), byte(addrIdx%250 + 1)})
	}
	for i := 0; i < cfg.gTLDs; i++ {
		label := gTLDLabel(i)
		p.TLDs = append(p.TLDs, &TLD{
			Name: dnswire.MustName(label), Label: label, Addr: nextAddr(),
			// Roughly a third of TLDs use plain NSEC denial, like the
			// real root zone and several large TLDs.
			NSECDenial: i%3 == 0,
		})
	}
	for i := 0; i < ccTLDs; i++ {
		label := ccTLDLabel(i)
		p.TLDs = append(p.TLDs, &TLD{
			Name: dnswire.MustName(label), Label: label, CC: true, Addr: nextAddr(),
		})
	}

	// Special TLD sets (all small-index TLDs are the big generic ones; the
	// special sets come from the tail so com/net/org stay ordinary).
	gs := p.TLDs[:cfg.gTLDs]
	ccs := p.TLDs[cfg.gTLDs:]

	// Stand-by KSK: 2 large ccTLDs plus 22 small gTLD suffixes (§4.2 item 3).
	ccs[0].Standby = true
	ccs[1].Standby = true
	for i := 0; i < 22 && i+40 < len(gs); i++ {
		gs[len(gs)-1-i].Standby = true
	}
	// Bogus-denial TLDs (§4.2 item 5: 124 TLDs, scaled).
	// Infrastructure counts shrink with the square root of the domain scale
	// so that broken TLDs still host several domains each at small scales.
	nBogus := max(2, int(math.Round(124*math.Sqrt(scale))))
	for i := 0; i < nBogus && 30+i < len(gs); i++ {
		gs[len(gs)-30-i].BogusDenial = true
	}
	// No-proof TLDs (§4.2 item 9).
	nNoProof := max(2, nBogus/3)
	for i := 0; i < nNoProof && 70+i < len(ccs); i++ {
		ccs[len(ccs)-1-i].NoProof = true
	}
	// Figure 1 extremes: 11 gTLDs + 2 ccTLDs entirely misconfigured.
	for i := 0; i < 11; i++ {
		gs[len(gs)-60-i].AllBroken = true
	}
	ccs[len(ccs)-40].AllBroken = true
	ccs[len(ccs)-41].AllBroken = true
	// Clean sets: 38% of gTLDs, 4% of ccTLDs have no misconfigured domain.
	for _, t := range gs {
		if !t.special() && rng.Float64() < 0.38 {
			t.Clean = true
		}
	}
	for _, t := range ccs {
		if !t.special() && rng.Float64() < 0.04 {
			t.Clean = true
		}
	}

	p.sizeTLDs(rng, scale)
}

func (t *TLD) special() bool {
	return t.Standby || t.BogusDenial || t.NoProof || t.AllBroken
}

// sizeTLDs distributes the domain budget: fixed sizes for special TLDs
// (calibrated to their class quotas), a Zipf tail for the rest with "com"
// absorbing the remainder.
func (p *Population) sizeTLDs(rng *rand.Rand, scale float64) {
	n := p.Config.TotalDomains

	// Quotas hosted by dedicated TLDs.
	standbyQuota := ClassQuota(ClassStandby, scale)
	bogusQuota := ClassQuota(ClassBogusTLD, scale)
	noProofQuota := ClassQuota(ClassNSECMissingTLD, scale)
	allBrokenQuota := max(13, int(math.Round(108_000*scale)))

	var standbyCC, standbyG, bogus, noProof, allBroken []*TLD
	var normal []*TLD
	for _, t := range p.TLDs {
		switch {
		case t.Standby && t.CC:
			standbyCC = append(standbyCC, t)
		case t.Standby:
			standbyG = append(standbyG, t)
		case t.BogusDenial:
			bogus = append(bogus, t)
		case t.NoProof:
			noProof = append(noProof, t)
		case t.AllBroken:
			allBroken = append(allBroken, t)
		default:
			normal = append(normal, t)
		}
	}
	// 90% of the stand-by quota sits under the two big ccTLDs (paper:
	// 2.47M of 2.75M under two ccTLDs).
	ccShare := standbyQuota * 9 / 10
	spread(standbyCC, ccShare)
	spread(standbyG, standbyQuota-ccShare)
	spread(bogus, bogusQuota)
	spread(noProof, noProofQuota)
	spread(allBroken, allBrokenQuota)

	used := standbyQuota + bogusQuota + noProofQuota + allBrokenQuota
	rest := n - used
	if rest < len(normal) {
		rest = len(normal) // degenerate tiny scales: one domain per TLD
	}
	// Zipf over normal TLDs, exponent 1.05, with index 0 ("com") first.
	weights := make([]float64, len(normal))
	var sum float64
	for i := range normal {
		weights[i] = 1 / math.Pow(float64(i+1), 1.05)
		sum += weights[i]
	}
	assigned := 0
	for i, t := range normal {
		t.Domains = int(float64(rest) * weights[i] / sum)
		if t.Domains == 0 {
			t.Domains = 1
		}
		assigned += t.Domains
	}
	// Remainder (rounding dust) to the largest TLD.
	if assigned < rest {
		normal[0].Domains += rest - assigned
	} else if assigned > rest {
		normal[0].Domains -= assigned - rest
		if normal[0].Domains < 1 {
			normal[0].Domains = 1
		}
	}
}

func spread(tlds []*TLD, total int) {
	if len(tlds) == 0 {
		return
	}
	each := total / len(tlds)
	for _, t := range tlds {
		t.Domains = each
	}
	tlds[0].Domains += total - each*len(tlds)
	for _, t := range tlds {
		if t.Domains < 1 {
			t.Domains = 1
		}
	}
}

// buildDomains materializes the per-TLD domain names: domain id (counting
// from 1 in TLD order) is "d" plus the id zero-padded to six digits, under its
// TLD. The domains live in one slab behind the []*Domain.
func (p *Population) buildDomains() {
	total := 0
	for _, t := range p.TLDs {
		total += t.Domains
	}
	slab := make([]Domain, total)
	p.Domains = make([]*Domain, total)
	id := 0
	for _, t := range p.TLDs {
		for i := 0; i < t.Domains; i++ {
			slab[id] = Domain{Name: t.Name.Child(domainLabel(id + 1)), TLD: t, Class: ClassHealthy, BrokenNS: -1}
			p.Domains[id] = &slab[id]
			id++
		}
	}
	p.Config.TotalDomains = total
}

// domainLabel is the first label of domain id: "d" and id zero-padded to six
// digits.
func domainLabel(id int) string {
	var buf [24]byte
	b := append(buf[:0], 'd')
	for pow := 100000; pow > 1 && id < pow; pow /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(id), 10))
}

// domainID reads back the id domainLabel put in name's first label. It does
// not check that the id exists or that the rest of the name is its TLD.
func domainID(name dnswire.Name) (int, bool) {
	if len(name) < 2 || name[0] != 'd' {
		return 0, false
	}
	id, i := 0, 1
	for ; i < len(name) && '0' <= name[i] && name[i] <= '9'; i++ {
		if id = id*10 + int(name[i]-'0'); id > math.MaxInt32 {
			return 0, false
		}
	}
	if id == 0 || i == len(name) || name[i] != '.' {
		return 0, false
	}
	return id, true
}

// assignClasses distributes the §4.2 class quotas over eligible domains.
func (p *Population) assignClasses(rng *rand.Rand, scale float64) {
	// Dedicated-TLD classes first.
	for _, d := range p.Domains {
		switch {
		case d.TLD.Standby:
			d.Class = ClassStandby
		case d.TLD.BogusDenial:
			d.Class = ClassBogusTLD
		case d.TLD.NoProof:
			d.Class = ClassNSECMissingTLD
		case d.TLD.AllBroken:
			d.Class = ClassLameRefused
		}
	}

	// Eligible pool for the remaining classes: normal, non-clean TLDs.
	// ccTLD domains are three times as likely to be picked, producing the
	// Figure 1 contrast between the gTLD and ccTLD curves.
	pool := make([]*Domain, 0, len(p.Domains))
	for _, d := range p.Domains {
		if d.Class == ClassHealthy && !d.TLD.Clean && !d.TLD.special() {
			pool = append(pool, d)
			if d.TLD.CC {
				pool = append(pool, d, d) // weight 3
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	classes := []Class{
		ClassLameRefused, ClassLameTimeout, ClassLameServfail,
		ClassPartialUpstream, ClassDNSKEYMismatch, ClassInvalidData,
		ClassUnsupportedAlg, ClassSigExpired, ClassUnsupportedDigest,
		ClassStale, ClassSigNotYet, ClassCachedError, ClassIterLoop,
	}
	idx := 0
	take := func() *Domain {
		for idx < len(pool) {
			d := pool[idx]
			idx++
			if d.Class == ClassHealthy {
				return d
			}
		}
		return nil
	}
	for _, class := range classes {
		quota := ClassQuota(class, scale)
		if class == ClassLameRefused {
			// The all-broken TLDs already contributed.
			for _, d := range p.Domains {
				if d.TLD.AllBroken {
					quota--
				}
			}
		}
		for i := 0; i < quota; i++ {
			d := take()
			if d == nil {
				break
			}
			d.Class = class
		}
	}

	// Coverage pass: the paper's Figure 1 has only 38% of gTLDs and 4% of
	// ccTLDs free of misconfigured domains — i.e. nearly every non-clean
	// TLD hosts at least one. Random assignment misses small TLDs at small
	// scales, so swap classes (count-preserving) from over-covered TLDs
	// into uncovered ones.
	misconfigured := func(c Class) bool { return c != ClassHealthy && c != ClassHealthySigned }
	perTLD := make(map[*TLD][]*Domain)
	for _, d := range p.Domains {
		if misconfigured(d.Class) && !d.TLD.special() && !d.TLD.Clean {
			perTLD[d.TLD] = append(perTLD[d.TLD], d)
		}
	}
	var donors []*Domain
	for _, ds := range perTLD {
		// A TLD keeps its first misconfigured domain; the rest may move.
		donors = append(donors, ds[1:]...)
	}
	sort.Slice(donors, func(i, j int) bool { return donors[i].Name < donors[j].Name })
	di := 0
	for _, d := range p.Domains {
		t := d.TLD
		if t.Clean || t.special() || len(perTLD[t]) > 0 || !healthyClass(d.Class) {
			continue
		}
		if di >= len(donors) {
			break
		}
		donor := donors[di]
		di++
		d.Class, donor.Class = donor.Class, d.Class
		perTLD[t] = append(perTLD[t], d)
	}

	// Signed healthy fraction.
	for _, d := range p.Domains {
		if d.Class == ClassHealthy && rng.Float64() < healthySignedFraction {
			d.Class = ClassHealthySigned
		}
	}
}

func healthyClass(c Class) bool { return c == ClassHealthy || c == ClassHealthySigned }

// assignBrokenNS builds the malfunctioning-nameserver pool (scaled from
// §4.2 item 2: 293k total — 267k REFUSED, 21k SERVFAIL, 15k timeout) and
// maps every lame domain to one, with the top-heavy weighting that makes
// "fixing the top ~7% of nameservers repair >80% of domains".
func (p *Population) assignBrokenNS(rng *rand.Rand) {
	scaleNS := func(n int) int { return max(3, int(math.Round(float64(n)*p.Scale))) }
	nRefused := scaleNS(267_000)
	nServfail := scaleNS(21_000)
	nTimeout := scaleNS(15_000)

	mk := func(behavior string, n int, base int) []int {
		idxs := make([]int, n)
		for i := 0; i < n; i++ {
			p.BrokenNS = append(p.BrokenNS, BrokenNS{
				Addr:     netip.AddrFrom4([4]byte{198, 20, byte((base + i) / 250), byte((base+i)%250 + 1)}),
				Behavior: behavior,
			})
			idxs[i] = len(p.BrokenNS) - 1
		}
		return idxs
	}
	refused := mk("refused", nRefused, 0)
	servfail := mk("servfail", nServfail, nRefused)
	timeout := mk("timeout", nTimeout, nRefused+nServfail)

	// Two-tier concentration encoding §4.2 item 2 directly: 81% of stranded
	// domains sit behind the top ~6.8% of broken nameservers (the paper's
	// "fixing 20k of 293k repairs >81%"), Zipf-distributed within the head.
	zipf := zipfPicker(rng, 1.2)
	pick := func(n int) int {
		head := n * 68 / 1000
		if head < 1 {
			head = 1
		}
		if head >= n {
			return zipf(n)
		}
		if rng.Float64() < 0.81 {
			return zipf(head)
		}
		return head + rng.IntN(n-head)
	}
	for _, d := range p.Domains {
		var set []int
		switch d.Class {
		case ClassLameRefused, ClassPartialUpstream:
			set = refused
		case ClassLameServfail:
			set = servfail
		case ClassLameTimeout:
			set = timeout
		default:
			continue
		}
		i := set[pick(len(set))]
		d.BrokenNS = int32(i)
		p.BrokenNS[i].Domains++
	}
}

// zipfPicker returns a sampler over [0,n) with P(i) ∝ (i+1)^-s.
func zipfPicker(rng *rand.Rand, s float64) func(n int) int {
	return func(n int) int {
		// Inverse-CDF approximation for the continuous power law.
		u := rng.Float64()
		x := math.Pow(float64(n), 1-s)*u + (1 - u)
		idx := int(math.Pow(x, 1/(1-s))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		return idx
	}
}

// assignTranco builds the popularity ranking: TrancoSize ranks; 2.21% of
// them are EDE-triggering domains spread uniformly across ranks (Figure 2),
// of which ~55% come from NOERROR-with-EDE classes (the paper's 12.2k of
// 22.1k).
func (p *Population) assignTranco(rng *rand.Rand) {
	healthy := make([]*Domain, 0, len(p.Domains))
	var advisory, failing []*Domain
	for _, d := range p.Domains {
		switch d.Class {
		case ClassHealthy, ClassHealthySigned:
			healthy = append(healthy, d)
		case ClassStandby, ClassPartialUpstream, ClassStale,
			ClassUnsupportedAlg, ClassUnsupportedDigest:
			advisory = append(advisory, d)
		default:
			failing = append(failing, d)
		}
	}
	rng.Shuffle(len(healthy), func(i, j int) { healthy[i], healthy[j] = healthy[j], healthy[i] })
	rng.Shuffle(len(advisory), func(i, j int) { advisory[i], advisory[j] = advisory[j], advisory[i] })
	rng.Shuffle(len(failing), func(i, j int) { failing[i], failing[j] = failing[j], failing[i] })

	edeSlots := int(math.Round(float64(p.TrancoSize) * 0.0221))
	advSlots := edeSlots * 55 / 100

	// Choose which ranks hold EDE domains: an even lattice (uniform spread).
	isEDE := make([]bool, p.TrancoSize)
	if edeSlots > 0 {
		step := p.TrancoSize / edeSlots
		for i := 0; i < edeSlots; i++ {
			isEDE[i*step+step/2] = true
		}
	}
	hi, ai, fi := 0, 0, 0
	for rank := 1; rank <= p.TrancoSize; rank++ {
		var d *Domain
		if isEDE[rank-1] {
			if ai < advSlots && ai < len(advisory) {
				d = advisory[ai]
				ai++
			} else if fi < len(failing) {
				d = failing[fi]
				fi++
			}
		}
		if d == nil && hi < len(healthy) {
			d = healthy[hi]
			hi++
		}
		if d != nil {
			d.Rank = int32(rank)
		}
	}
}

// gTLDLabel produces generic TLD labels; the first few mirror the real
// heavyweights for readability.
func gTLDLabel(i int) string {
	known := []string{"com", "net", "org", "info", "xyz", "top", "online", "site", "shop", "club"}
	if i < len(known) {
		return known[i]
	}
	return fmt.Sprintf("gen%04d", i)
}

// ccTLDLabel produces two-letter-style country-code labels.
func ccTLDLabel(i int) string {
	known := []string{"de", "uk", "nl", "ru", "br", "fr", "it", "pl", "cn", "au", "se", "nu", "ch", "li"}
	if i < len(known) {
		return known[i]
	}
	return fmt.Sprintf("c%03d", i)
}
