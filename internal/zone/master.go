package zone

import (
	"fmt"
	"sort"
	"strings"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// Master renders the zone in RFC 1035 master-file presentation format:
// $ORIGIN and $TTL directives followed by every RRset (and its RRSIGs) in
// canonical name order, SOA first. The output round-trips through standard
// tooling (named-checkzone, ldns-read-zone) and is what the paper's
// published testbed instructions distribute for each misconfiguration.
func (z *Zone) Master() string {
	var b strings.Builder
	fmt.Fprintf(&b, "$ORIGIN %s\n$TTL %d\n", z.Origin, z.DefaultTTL)

	names := z.Names()
	// SOA first at the apex, per convention.
	if soa, ok := z.SOA(); ok {
		writeRR(&b, soa)
		for _, sig := range z.Sigs(z.Origin, dnswire.TypeSOA) {
			writeRR(&b, sig)
		}
	}
	for _, name := range names {
		types := z.typesAt(name)
		for _, t := range types {
			if name == z.Origin && t == dnswire.TypeSOA {
				continue
			}
			for _, rr := range z.RRset(name, t) {
				writeRR(&b, rr)
			}
			for _, sig := range z.Sigs(name, t) {
				writeRR(&b, sig)
			}
		}
	}
	return b.String()
}

// typesAt returns the types present at name in stable numeric order.
func (z *Zone) typesAt(name dnswire.Name) []dnswire.Type {
	var out []dnswire.Type
	for k := range z.rrsets {
		if k.name == name {
			out = append(out, k.typ)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func writeRR(b *strings.Builder, rr dnswire.RR) {
	fmt.Fprintf(b, "%-40s %6d %s %-10s %s\n", rr.Name, rr.TTL, rr.Class, rr.Type(), rr.Data)
}
