// Package authserver implements an authoritative DNS server as a
// netsim.Handler: the simulation registers it on a netsim.Network, and
// internal/transport serves the same handler on real sockets. It serves
// zone.Zone data with AA answers, referrals with glue, DNSSEC records when
// the query sets DO, NSEC3 denial of existence, and the access-control and degraded behaviours the paper's testbed needs
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
	// Zone transfers are off, as on a server that allows none.
	if question.Class != dnswire.ClassIN || question.Type == dnswire.TypeAXFR {
		resp.RCode = dnswire.RCodeRefused
		return resp, nil
	}
	z := s.zoneFor(question.Name)
	if z == nil {
		resp.RCode = dnswire.RCodeRefused
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
