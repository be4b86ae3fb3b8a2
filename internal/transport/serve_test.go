package transport

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/frontend"
	"github.com/extended-dns-errors/edelab/internal/testbed"
)

// fuzzUpstream answers by the first label: fail* as failingUpstream does,
// big* with 100 A records and a long EDE (past 512 bytes, so UDP clients
// meet the truncation ladder), and anything else with one record.
var fuzzUpstream = upstreamFunc(func(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	switch label := qname.String(); {
	case strings.HasPrefix(label, "fail"):
		return failingUpstream(ctx, qname, qtype)
	case strings.HasPrefix(label, "big"):
		r := dnswire.NewQuery(0, qname, qtype).Reply()
		for i := 0; i < 100; i++ {
			r.Answer = append(r.Answer, dnswire.RR{Name: qname, Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}})
		}
		r.AddEDE(3, strings.Repeat("stale ", 100))
		return r, nil
	}
	return mixedUpstream(ctx, qname, qtype)
})

// rawQuery packs q and lets edit change the bytes.
func rawQuery(q *dnswire.Message, edit func([]byte) []byte) []byte {
	b, err := q.Pack()
	if err != nil {
		panic(err)
	}
	return edit(b)
}

// emptyOPT is an OPT RR with no options: root owner, size 4,096, version 0.
var emptyOPT = []byte{0, 0, 41, 0x10, 0, 0, 0, 0, 0, 0, 0}

// FuzzServeRaw holds the serve core to its own slow path: any bytes, asked
// twice after one other query has warmed the cache, get from a server with
// the wire cache the answer a DisableWire server over the same frontend
// gives, at each door's limit — the one the query's OPT advertises for UDP,
// 65,535 for stream and DoH. Unreadable bytes must be unreadable to both.
// Beside that, two properties hold the answer to the RFCs, so that a defect
// both paths share fails too: a query for an EDNS version other than 0 gets
// BADVERS in an OPT of version 0 and no records (RFC 6891 §6.1.3), and a
// message with QR set, a response (RFC 1035 §4.1.1), gets no answer over
// UDP and FORMERR on a stream. The seeds are the server-side EDNS cases of
// RFC 6891 compliance testing, plus broken headers.
func FuzzServeRaw(f *testing.F) {
	plain := func(name string) *dnswire.Message {
		q := dnswire.NewQuery(7, dnswire.MustName(name), dnswire.TypeA)
		q.OPT = nil
		return q
	}
	edns := func(name string, edit func(*dnswire.OPT)) *dnswire.Message {
		q := dnswire.NewQuery(7, dnswire.MustName(name), dnswire.TypeA)
		edit(q.OPT)
		return q
	}
	same := func(b []byte) []byte { return b }
	okQuery := rawQuery(plain("ok.example."), same)
	for _, seed := range [][]byte{
		okQuery,
		rawQuery(plain("big.example."), same),
		rawQuery(edns("fail.example.", func(*dnswire.OPT) {}), same),
		rawQuery(edns("big.example.", func(o *dnswire.OPT) { o.UDPSize = 1232 }), same),
		// Unknown EDNS versions: BADVERS, never the wire path.
		rawQuery(edns("ok.example.", func(o *dnswire.OPT) { o.Version = 1 }), same),
		rawQuery(edns("ok.example.", func(o *dnswire.OPT) { o.Version = 255; o.DO = false }), same),
		// A response, QR set.
		rawQuery(plain("ok.example."), func(b []byte) []byte { b[2] |= 0x80; return b }),
		// An option the server does not know.
		rawQuery(edns("ok.example.", func(o *dnswire.OPT) {
			o.Options = []dnswire.Option{dnswire.RawOption{OptCode: 65001, Data: []byte{1, 2, 3}}}
		}), same),
		// UDP size 0 (read as 512) and 65,535.
		rawQuery(edns("big.example.", func(o *dnswire.OPT) { o.UDPSize = 0 }), same),
		rawQuery(edns("big.example.", func(o *dnswire.OPT) { o.UDPSize = 0xFFFF }), same),
		// An OPT in the answer section, and one in the authority section.
		rawQuery(plain("ok.example."), func(b []byte) []byte { b[7] = 1; return append(b, emptyOPT...) }),
		rawQuery(plain("ok.example."), func(b []byte) []byte { b[9] = 1; return append(b, emptyOPT...) }),
		// Two OPTs in the additional section.
		rawQuery(edns("ok.example.", func(*dnswire.OPT) {}), func(b []byte) []byte { b[11] = 2; return append(b, emptyOPT...) }),
		// A short header and garbage.
		{0x12, 0x34, 0x01},
		[]byte("\xde\xadnot a DNS message at all"),
	} {
		f.Add([]byte(nil), seed)
	}
	// The same question in class CH first: its reply must not become the
	// image a class-IN query is served.
	f.Add(rawQuery(plain("ok.example."), func(b []byte) []byte { b[len(b)-1] = 3; return b }), okQuery)

	// answer is what a door with limit sends for data: the core's wire
	// answer, nothing for a response over UDP, a FORMERR for other
	// unreadable bytes, or the slow path's packed reply.
	answer := func(s *Server, limit int, data []byte) []byte {
		wire, q, err := s.serveQuery(TransportTCP, data, limit, nil, nil)
		switch {
		case err != nil:
			if len(data) < 2 {
				return []byte("unreadable")
			}
			if limit == 0 && errors.Is(err, errResponse) {
				return nil
			}
			return appendFORMERR(nil, data)
		case wire != nil:
			return wire
		}
		resp := s.respond(context.Background(), TransportTCP, q)
		if resp == nil {
			return nil
		}
		if limit == 0 {
			wire, _ = s.packUDP(resp, q, nil)
			return wire
		}
		wire, _ = resp.Pack()
		return wire
	}
	now := time.Unix(int64(testbed.Now), 0)
	f.Fuzz(func(t *testing.T, warm, data []byte) {
		for _, limit := range []int{0, 0xFFFF} {
			fe := frontend.New(fuzzUpstream, frontend.Config{Now: func() time.Time { return now }})
			wired := NewServer(Config{Handler: fe})
			slow := NewServer(Config{Handler: fe, DisableWire: true})
			answer(slow, limit, warm)
			answer(slow, limit, data)
			answer(slow, limit, data)
			want := answer(slow, limit, data)
			got := answer(wired, limit, data)
			if !bytes.Equal(got, want) {
				t.Fatalf("limit %d: the wire cache answers %x, the slow path %x", limit, got, want)
			}
			switch q, err := dnswire.Unpack(data); {
			case len(data) > 2 && data[2]&0x80 != 0: // QR
				if limit == 0 && got != nil || limit != 0 && !bytes.Equal(got, appendFORMERR(nil, data)) {
					t.Fatalf("limit %d: a response is answered %x, want no answer over UDP and FORMERR on a stream", limit, got)
				}
			case err == nil && q.OPT != nil && q.OPT.Version != 0:
				r, err := dnswire.Unpack(got)
				if err != nil || r.RCode != dnswire.RCodeBadVers || r.OPT == nil || r.OPT.Version != 0 ||
					len(r.Answer)+len(r.Authority)+len(r.Additional) != 0 {
					t.Fatalf("limit %d: EDNS version %d is answered %v (%v), want BADVERS with an OPT of version 0 and no records",
						limit, q.OPT.Version, r, err)
				}
			}
		}
	})
}
