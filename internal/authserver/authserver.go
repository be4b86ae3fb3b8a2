// Package authserver implements an authoritative DNS server as a
// netsim.Handler: the simulation registers it on a netsim.Network, and
// internal/transport serves the same handler on real sockets. It serves
// zone.Zone data with AA answers, referrals with glue, DNSSEC records when
// the query sets DO, NSEC3 denial of existence, whole-zone transfers (AXFR),
// and the access-control and degraded behaviours the paper's testbed needs
// (allow-query-none, allow-query-localhost).
package authserver

import (
	"context"
	"sort"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// ACLMode models the query ACLs of Table 3 group 8. From the vantage point
// of a public recursive resolver, allow-query none and allow-query
// localhost are both observed as REFUSED; they are kept distinct for
// reporting.
type ACLMode int

// ACL modes.
const (
	ACLAllowAll ACLMode = iota
	// ACLRefuseAll: allow-query {none;}.
	ACLRefuseAll
	// ACLLocalhostOnly: allow-query {localhost;}; equivalent to refuse-all
	// for any remote client.
	ACLLocalhostOnly
)

// Server serves one or more zones.
type Server struct {
	zones []*zone.Zone // sorted most-specific first
	ACL   ACLMode
}

// New creates a server for the given zones.
func New(zones ...*zone.Zone) *Server {
	s := &Server{zones: append([]*zone.Zone(nil), zones...)}
	sort.Slice(s.zones, func(i, j int) bool {
		return s.zones[i].Origin.LabelCount() > s.zones[j].Origin.LabelCount()
	})
	return s
}

// zoneFor returns the most specific zone containing name.
func (s *Server) zoneFor(name dnswire.Name) *zone.Zone {
	for _, z := range s.zones {
		if name.IsSubdomainOf(z.Origin) {
			return z
		}
	}
	return nil
}

// HandleDNS implements netsim.Handler.
func (s *Server) HandleDNS(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
	resp := q.Reply()
	if len(q.Question) != 1 || q.Opcode != dnswire.OpcodeQuery {
		resp.RCode = dnswire.RCodeFormErr
		return resp, nil
	}
	if s.ACL != ACLAllowAll {
		resp.RCode = dnswire.RCodeRefused
		return resp, nil
	}
	question := q.Question[0]
	if question.Class != dnswire.ClassIN {
		resp.RCode = dnswire.RCodeRefused
		return resp, nil
	}
	z := s.zoneFor(question.Name)
	if z == nil {
		resp.RCode = dnswire.RCodeRefused
		return resp, nil
	}
	if question.Type == dnswire.TypeAXFR {
		transfer(resp, z, question.Name)
		return resp, nil
	}

	res := z.Lookup(question.Name, question.Type, q.DO())
	switch res.Kind {
	case zone.ResultNotZone:
		resp.RCode = dnswire.RCodeRefused
	case zone.ResultAnswer:
		resp.Authoritative = true
		resp.Answer = res.Answer
		resp.Authority = res.Authority
		resp.Additional = res.Additional
	case zone.ResultReferral:
		resp.Authority = res.Authority
		resp.Additional = res.Additional
	case zone.ResultNoData:
		resp.Authoritative = true
		resp.Authority = res.Authority
	case zone.ResultNXDomain:
		resp.Authoritative = true
		resp.RCode = dnswire.RCodeNXDomain
		resp.Authority = res.Authority
	}
	return resp, nil
}

var _ netsim.Handler = (*Server)(nil)

// transfer answers an AXFR question (RFC 5936) — the channel through which
// the paper obtained the .se/.nu/.ch/.li TLD zones (§4.1) — in one message:
// the SOA, every record, and the SOA again. Only the zone's own apex may be
// transferred. The answer is data like any other, so the handler does not
// ask which transport carries it: over a stream door it arrives whole, over
// UDP (which RFC 5936 leaves undefined) a zone larger than the client's
// buffer comes back TC=1 and the client retries over TCP.
func transfer(resp *dnswire.Message, z *zone.Zone, origin dnswire.Name) {
	if z.Origin != origin {
		resp.RCode = dnswire.RCodeRefused
		return
	}
	records := TransferRecords(z)
	if len(records) == 0 {
		resp.RCode = dnswire.RCodeServFail
		return
	}
	resp.Authoritative = true
	resp.Answer = records
}

// TransferRecords assembles a zone's AXFR stream: SOA first, every RRset and
// its signatures, SOA again.
func TransferRecords(z *zone.Zone) []dnswire.RR {
	soa, ok := z.SOA()
	if !ok {
		return nil
	}
	out := []dnswire.RR{soa}
	for _, name := range z.Names() {
		for _, t := range allTypesAt(z, name) {
			// The apex SOA itself opens and closes the stream.
			if name != z.Origin || t != dnswire.TypeSOA {
				out = append(out, z.RRset(name, t)...)
			}
			out = append(out, z.Sigs(name, t)...)
		}
	}
	return append(out, soa)
}

func allTypesAt(z *zone.Zone, name dnswire.Name) []dnswire.Type {
	candidates := []dnswire.Type{
		dnswire.TypeSOA, dnswire.TypeNS, dnswire.TypeA, dnswire.TypeAAAA,
		dnswire.TypeCNAME, dnswire.TypeMX, dnswire.TypeTXT, dnswire.TypePTR,
		dnswire.TypeDS, dnswire.TypeDNSKEY, dnswire.TypeNSEC,
		dnswire.TypeNSEC3, dnswire.TypeNSEC3PARAM,
	}
	var out []dnswire.Type
	for _, t := range candidates {
		if len(z.RRset(name, t)) > 0 {
			out = append(out, t)
		}
	}
	return out
}
