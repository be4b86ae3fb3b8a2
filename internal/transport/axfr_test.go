package transport

import (
	"context"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/authserver"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// TestAXFR asks for a zone transfer through every door that fronts an
// authserver.Server. Transfers are off, so the question travels the doors
// like any framed query and comes back REFUSED with no records: for the
// apex of a zone the server holds, for any other name, and under a query
// ACL.
func TestAXFR(t *testing.T) {
	axfr := func(name string) *dnswire.Message {
		return dnswire.NewQuery(1, dnswire.MustName(name), dnswire.TypeAXFR)
	}
	open, closed := authserver.New(authZone(t)), authserver.New(authZone(t))
	closed.ACL = authserver.ACLRefuseAll
	openDoors, closedDoors := startDoors(t, Config{Handler: open}), startDoors(t, Config{Handler: closed})
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
		t.Run("RefusedAtApex/"+door, func(t *testing.T) {
			if resp := query(openDoors, "example.test"); resp.RCode != dnswire.RCodeRefused || resp.Authoritative || len(resp.Answer) != 0 {
				t.Errorf("rcode=%s aa=%t records=%d, want REFUSED with none", resp.RCode, resp.Authoritative, len(resp.Answer))
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

	// The refusal fits any datagram, so over UDP it comes back whole rather
	// than truncated.
	resp, err := QueryUDP(ctx, openDoors.udpAddr, axfr("example.test"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeRefused || resp.Truncated || len(resp.Answer) != 0 {
		t.Errorf("AXFR over udp: rcode=%s tc=%t records=%d, want REFUSED, TC=0 and none", resp.RCode, resp.Truncated, len(resp.Answer))
	}
}
