// Package zone models authoritative DNS zones: RRset storage, delegations
// with glue, DNSSEC signing (keys, RRSIGs, NSEC3 chain), query answering
// with authenticated denial, and — the testbed's raison d'être — mutators
// implementing every misconfiguration of the paper's Table 3.
package zone

import (
	"fmt"
	"net/netip"
	"sort"

	"github.com/extended-dns-errors/edelab/internal/dnssec"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// rrKey addresses one RRset.
type rrKey struct {
	name dnswire.Name
	typ  dnswire.Type
}

// DenialMode selects how the serving side constructs negative responses.
// Normal is RFC 5155 behaviour; the degraded modes model the differently
// broken servers behind the paper's NSEC3 test group (see testbed package).
type DenialMode int

// Denial modes.
const (
	// DenialNormal attaches a full NSEC3 closest-encloser proof.
	DenialNormal DenialMode = iota
	// DenialOmitNSEC3 serves signed negative responses without any NSEC3
	// records (zone lost its NSEC3 RRsets; nsec3-missing).
	DenialOmitNSEC3
	// DenialUnsignedSOA serves negative responses with an unsigned SOA and
	// no NSEC3 (server cannot construct denial without NSEC3PARAM;
	// nsec3param-missing).
	DenialUnsignedSOA
	// DenialBare serves entirely empty negative responses (zone stripped of
	// both NSEC3 and NSEC3PARAM; no-nsec3param-nsec3).
	DenialBare
	// DenialFullChain attaches every NSEC3 record the zone has instead of a
	// targeted proof — the fallback of a server whose NSEC3PARAM no longer
	// matches its chain and that cannot select records by hash
	// (bad-nsec3param-salt).
	DenialFullChain
)

// Zone is one authoritative zone. It is not safe for concurrent mutation;
// servers treat a finished zone as read-only.
type Zone struct {
	Origin     dnswire.Name
	DefaultTTL uint32

	rrsets map[rrKey][]dnswire.RR
	// sigs holds RRSIGs indexed by the (owner, covered-type) they cover.
	sigs        map[rrKey][]dnswire.RR
	delegations map[dnswire.Name]bool

	// Signing state. KSKs/ZSKs stay available after signing so that the
	// Table 3 mutators can selectively re-sign.
	KSKs []*dnssec.KeyPair
	ZSKs []*dnssec.KeyPair

	NSEC3Params dnswire.NSEC3PARAM
	nsec3Chain  []nsec3Entry // sorted by hash
	// nsecChain holds the canonical owner-name order when the zone uses
	// NSEC instead of NSEC3 denial.
	nsecChain []dnswire.Name
	nsecMode  bool
	signed    bool

	Inception, Expiration uint32

	// DenialMode is consumed by the authoritative server.
	DenialMode DenialMode
}

type nsec3Entry struct {
	hash  []byte
	owner dnswire.Name // hashed owner name (label.origin)
}

// New creates an empty zone rooted at origin with an SOA record.
func New(origin dnswire.Name, ttl uint32) *Zone {
	z := &Zone{
		Origin:      origin,
		DefaultTTL:  ttl,
		rrsets:      make(map[rrKey][]dnswire.RR),
		sigs:        make(map[rrKey][]dnswire.RR),
		delegations: make(map[dnswire.Name]bool),
	}
	z.Add(dnswire.RR{
		Name: origin, Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.SOA{
			MName:   origin.Child("ns1"),
			RName:   origin.Child("hostmaster"),
			Serial:  2023051500,
			Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
		},
	})
	return z
}

// Add inserts rr into the zone.
func (z *Zone) Add(rr dnswire.RR) {
	if sig, ok := rr.Data.(dnswire.RRSIG); ok {
		k := rrKey{rr.Name, sig.TypeCovered}
		z.sigs[k] = append(z.sigs[k], rr)
		return
	}
	k := rrKey{rr.Name, rr.Type()}
	z.rrsets[k] = append(z.rrsets[k], rr)
	if rr.Type() == dnswire.TypeNS && rr.Name != z.Origin {
		z.delegations[rr.Name] = true
	}
}

// RRset returns the records of type t at name (no RRSIGs).
func (z *Zone) RRset(name dnswire.Name, t dnswire.Type) []dnswire.RR {
	return z.rrsets[rrKey{name, t}]
}

// Sigs returns the RRSIGs covering the RRset of type t at name.
func (z *Zone) Sigs(name dnswire.Name, t dnswire.Type) []dnswire.RR {
	return z.sigs[rrKey{name, t}]
}

// SetRRset replaces the RRset of type t at name.
func (z *Zone) SetRRset(name dnswire.Name, t dnswire.Type, rrs []dnswire.RR) {
	k := rrKey{name, t}
	if len(rrs) == 0 {
		delete(z.rrsets, k)
		return
	}
	z.rrsets[k] = rrs
}

// RemoveRRset deletes the RRset and its signatures.
func (z *Zone) RemoveRRset(name dnswire.Name, t dnswire.Type) {
	delete(z.rrsets, rrKey{name, t})
	delete(z.sigs, rrKey{name, t})
}

// RemoveSigs deletes just the RRSIGs covering (name, t).
func (z *Zone) RemoveSigs(name dnswire.Name, t dnswire.Type) {
	delete(z.sigs, rrKey{name, t})
}

// HasName reports whether any RRset exists at name.
func (z *Zone) HasName(name dnswire.Name) bool {
	for k := range z.rrsets {
		if k.name == name {
			return true
		}
	}
	return false
}

// Names returns every owner name in the zone, sorted canonically.
func (z *Zone) Names() []dnswire.Name {
	seen := make(map[dnswire.Name]bool)
	for k := range z.rrsets {
		seen[k.name] = true
	}
	out := make([]dnswire.Name, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// SOA returns the zone's SOA record.
func (z *Zone) SOA() (dnswire.RR, bool) {
	set := z.RRset(z.Origin, dnswire.TypeSOA)
	if len(set) == 0 {
		return dnswire.RR{}, false
	}
	return set[0], true
}

// AddNS registers host as an apex nameserver with optional glue addresses.
func (z *Zone) AddNS(host dnswire.Name, addrs ...netip.Addr) {
	z.Add(dnswire.RR{Name: z.Origin, Class: dnswire.ClassIN, TTL: z.DefaultTTL,
		Data: dnswire.NS{Host: host}})
	z.addGlue(host, addrs)
}

// AddDelegation delegates child to the given nameserver hosts, publishing
// glue for any host under the zone.
func (z *Zone) AddDelegation(child dnswire.Name, hosts map[dnswire.Name][]netip.Addr) {
	for host, addrs := range hosts {
		z.Add(dnswire.RR{Name: child, Class: dnswire.ClassIN, TTL: z.DefaultTTL,
			Data: dnswire.NS{Host: host}})
		z.addGlue(host, addrs)
	}
}

// AddDS publishes a signed-delegation DS set for child.
func (z *Zone) AddDS(child dnswire.Name, dsSet ...dnswire.DS) {
	for _, ds := range dsSet {
		z.Add(dnswire.RR{Name: child, Class: dnswire.ClassIN, TTL: z.DefaultTTL, Data: ds})
	}
}

// AddAddress publishes A/AAAA records for name.
func (z *Zone) AddAddress(name dnswire.Name, addrs ...netip.Addr) {
	z.addGlue(name, addrs)
}

func (z *Zone) addGlue(host dnswire.Name, addrs []netip.Addr) {
	if !host.IsSubdomainOf(z.Origin) {
		return
	}
	for _, a := range addrs {
		var data dnswire.RData
		if a.Is4() {
			data = dnswire.A{Addr: a}
		} else {
			data = dnswire.AAAA{Addr: a}
		}
		z.Add(dnswire.RR{Name: host, Class: dnswire.ClassIN, TTL: z.DefaultTTL, Data: data})
	}
}

// delegationAbove returns the closest delegation point at or above name
// (strictly below the origin), if any.
func (z *Zone) delegationAbove(name dnswire.Name) (dnswire.Name, bool) {
	for n := name; n != z.Origin && !n.IsRoot(); n = n.Parent() {
		if z.delegations[n] {
			return n, true
		}
	}
	return "", false
}

// Authoritative reports whether name is authoritative data in this zone
// (under the origin and not below a delegation cut; the cut itself is
// authoritative only for DS).
func (z *Zone) Authoritative(name dnswire.Name) bool {
	if !name.IsSubdomainOf(z.Origin) {
		return false
	}
	_, below := z.delegationAbove(name)
	return !below
}

func (z *Zone) String() string {
	return fmt.Sprintf("zone %s (%d rrsets, signed=%t)", z.Origin, len(z.rrsets), z.signed)
}
