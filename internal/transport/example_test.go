package transport_test

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"time"

	"github.com/extended-dns-errors/edelab/internal/authserver"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/transport"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

// Serve a zone whose signatures expired an hour ago on a real UDP socket
// and query it as a validating stub would: the authority answers, and the
// RRSIG it returns is what a validating resolver reports as EDE 7.
func ExampleQueryUDP() {
	z := zone.New(dnswire.MustName("live.example"), 300)
	z.AddNS(dnswire.MustName("ns1.live.example"), netip.MustParseAddr("127.0.0.1"))
	z.AddAddress(dnswire.MustName("live.example"), netip.MustParseAddr("203.0.113.1"))
	now := uint32(time.Now().Unix())
	if err := z.Sign(zone.SignOptions{Inception: now - 7200, Expiration: now + 7200}); err != nil {
		fmt.Println(err)
		return
	}
	if err := z.ResignAllWithWindow(now-7200, now-3600); err != nil {
		fmt.Println(err)
		return
	}

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	srv := transport.NewServer(transport.Config{Handler: authserver.New(z)})
	go func() {
		defer close(done)
		_ = srv.ServeUDP(ctx, conn) // ends when ctx is cancelled
	}()
	defer func() { cancel(); <-done }()

	qctx, qcancel := context.WithTimeout(ctx, 2*time.Second)
	defer qcancel()
	resp, err := transport.QueryUDP(qctx, conn.LocalAddr().String(),
		dnswire.NewQuery(1, dnswire.MustName("live.example"), dnswire.TypeA))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("rcode %s, authoritative %t\n", resp.RCode, resp.Authoritative)
	for _, rr := range resp.Answer {
		switch d := rr.Data.(type) {
		case dnswire.A:
			fmt.Printf("%s A %s\n", rr.Name, d.Addr)
		case dnswire.RRSIG:
			fmt.Printf("%s RRSIG over %s, expired: %t\n", rr.Name, d.TypeCovered, d.Expiration < now)
		}
	}
	fmt.Printf("a validating resolver answers SERVFAIL with %s\n", ede.CodeSignatureExpired)
	// Output:
	// rcode NOERROR, authoritative true
	// live.example. A 203.0.113.1
	// live.example. RRSIG over A, expired: true
	// a validating resolver answers SERVFAIL with Signature Expired (7)
}
