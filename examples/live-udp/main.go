// Live-udp: serve a deliberately broken DNSSEC zone on a real UDP socket
// and query it with an EDE-aware stub — the same wire format end to end,
// outside the simulator.
//
// Run with: go run ./examples/live-udp
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/netip"
	"time"

	"github.com/extended-dns-errors/edelab/internal/authserver"
	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/ede"
	"github.com/extended-dns-errors/edelab/internal/transport"
	"github.com/extended-dns-errors/edelab/internal/zone"
)

func main() {
	// Build a signed zone, then let its signatures expire.
	z := zone.New(dnswire.MustName("live.example"), 300)
	z.AddNS(dnswire.MustName("ns1.live.example"), netip.MustParseAddr("127.0.0.1"))
	z.AddAddress(dnswire.MustName("live.example"), netip.MustParseAddr("203.0.113.1"))
	now := uint32(time.Now().Unix())
	if err := z.Sign(zone.SignOptions{Inception: now - 7200, Expiration: now + 7200}); err != nil {
		log.Fatal(err)
	}
	if err := z.ResignAllWithWindow(now-7200, now-3600); err != nil { // expired an hour ago
		log.Fatal(err)
	}

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := transport.NewServer(transport.Config{Handler: authserver.New(z)})
	go func() {
		if err := srv.ServeUDP(ctx, conn); err != nil && ctx.Err() == nil {
			log.Print(err)
		}
	}()
	addr := conn.LocalAddr().String()
	fmt.Printf("authoritative server for live.example on %s (signatures expired)\n\n", addr)

	// Query it like a validating stub would.
	qctx, qcancel := context.WithTimeout(ctx, 2*time.Second)
	defer qcancel()
	q := dnswire.NewQuery(1, dnswire.MustName("live.example"), dnswire.TypeA)
	resp, err := transport.QueryUDP(qctx, addr, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(resp.String())

	// Verify the RRSIG we got back really is expired: this is what a
	// validating resolver would discover and report as EDE 7.
	for _, rr := range resp.Answer {
		if sig, ok := rr.Data.(dnswire.RRSIG); ok {
			expired := time.Unix(int64(sig.Expiration), 0)
			fmt.Printf("\nRRSIG over %s expired %s (%s ago)\n",
				sig.TypeCovered, expired.Format(time.RFC3339), time.Since(expired).Round(time.Minute))
		}
	}
	fmt.Printf("\na validating resolver would answer SERVFAIL with %s\n", ede.CodeSignatureExpired)
}
