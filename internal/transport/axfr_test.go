package transport

import (
	"context"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/authserver"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// TestAXFR transfers a zone through the stream doors that front an
// authserver.Server: a transfer is an ordinary framed query with an AXFR
// question, refused for anything but the apex of a zone the server holds
// and under a query ACL.
func TestAXFR(t *testing.T) {
	axfr := func(name string) *dnswire.Message {
		return dnswire.NewQuery(1, dnswire.MustName(name), dnswire.TypeAXFR)
	}
	open, closed := authserver.New(authZone(t)), authserver.New(authZone(t))
	closed.ACL = authserver.ACLRefuseAll
	openDoors, closedDoors := startDoors(t, open), startDoors(t, closed)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for _, door := range []string{"tcp", "dot"} {
		query := func(fd *frontDoor, name string) *dnswire.Message {
			t.Helper()
			var resp *dnswire.Message
			var err error
			if door == "tcp" {
				resp, err = QueryTCP(ctx, fd.tcpAddr, axfr(name))
			} else {
				resp, err = QueryDoT(ctx, fd.dotAddr, fd.tlsConf.Clone(), axfr(name))
			}
			if err != nil {
				t.Fatalf("AXFR %s over %s: %v", name, door, err)
			}
			return resp
		}
		t.Run("TransfersWholeZone/"+door, func(t *testing.T) {
			resp := query(openDoors, "example.test")
			records := resp.Answer
			if resp.RCode != dnswire.RCodeNoError || !resp.Authoritative || len(records) < 4 {
				t.Fatalf("rcode=%s aa=%t records=%d", resp.RCode, resp.Authoritative, len(records))
			}
			// RFC 5936: SOA first and last.
			if records[0].Type() != dnswire.TypeSOA || records[len(records)-1].Type() != dnswire.TypeSOA {
				t.Errorf("stream not SOA-delimited: first=%s last=%s",
					records[0].Type(), records[len(records)-1].Type())
			}
			// Signed zone: the stream carries DNSKEY, RRSIG, and NSEC3 records.
			seen := map[dnswire.Type]bool{}
			for _, rr := range records {
				seen[rr.Type()] = true
			}
			for _, want := range []dnswire.Type{dnswire.TypeDNSKEY, dnswire.TypeRRSIG, dnswire.TypeNSEC3, dnswire.TypeA} {
				if !seen[want] {
					t.Errorf("transfer missing %s records", want)
				}
			}
		})
		t.Run("RefusedForForeignZone/"+door, func(t *testing.T) {
			// A zone the server does not hold, and a name inside one it
			// does hold that is not the apex.
			for _, name := range []string{"other.zone", "www.example.test"} {
				if resp := query(openDoors, name); resp.RCode != dnswire.RCodeRefused || len(resp.Answer) != 0 {
					t.Errorf("AXFR %s: rcode=%s records=%d, want REFUSED", name, resp.RCode, len(resp.Answer))
				}
			}
		})
		t.Run("RefusedUnderACL/"+door, func(t *testing.T) {
			if resp := query(closedDoors, "example.test"); resp.RCode != dnswire.RCodeRefused || len(resp.Answer) != 0 {
				t.Errorf("rcode=%s records=%d, want REFUSED under the ACL", resp.RCode, len(resp.Answer))
			}
		})
	}

	// RFC 5936 leaves AXFR over UDP undefined; here it is the handler's
	// answer on the datagram ladder, so a zone larger than the buffer tells
	// the client to come back over TCP.
	resp, err := QueryUDP(ctx, openDoors.udpAddr, axfr("example.test"))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated || len(resp.Answer) != 0 {
		t.Errorf("AXFR over udp: tc=%t records=%d, want TC=1 and no partial transfer", resp.Truncated, len(resp.Answer))
	}
}
