package transport

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// TestStreamClientReusesConnection: many sequential queries over one client
// must cost exactly one dial.
func TestStreamClientReusesConnection(t *testing.T) {
	addr, _, _, _ := startTCP(t, Config{Handler: echoHandler(nil)})
	c := &StreamClient{Addr: addr}
	defer c.Close()

	ctx := context.Background()
	for i := 0; i < 20; i++ {
		q := dnswire.NewQuery(uint16(i+1), dnswire.MustName("a.example"), dnswire.TypeA)
		resp, err := c.Query(ctx, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if resp.ID != uint16(i+1) || resp.RCode != dnswire.RCodeNoError {
			t.Fatalf("query %d: id %d rcode %s", i, resp.ID, resp.RCode)
		}
	}
	if got := c.Dials(); got != 1 {
		t.Fatalf("20 queries cost %d dials, want 1", got)
	}
}

// TestStreamClientRedialsStaleConnection: when the server closes the idle
// connection first, the next query on the reused socket fails and the
// client must redial once and succeed.
func TestStreamClientRedialsStaleConnection(t *testing.T) {
	addr, _, _, _ := startTCP(t, Config{
		Handler:      echoHandler(nil),
		TCPKeepalive: 100 * time.Millisecond, // the server's idle timeout
	})
	c := &StreamClient{Addr: addr}
	defer c.Close()

	ctx := context.Background()
	if _, err := c.Query(ctx, dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let the server's idle timeout fire
	resp, err := c.Query(ctx, dnswire.NewQuery(2, dnswire.MustName("b.example"), dnswire.TypeA))
	if err != nil {
		t.Fatalf("query over stale connection did not recover: %v", err)
	}
	if resp.ID != 2 {
		t.Fatalf("response ID = %d, want 2", resp.ID)
	}
	if got := c.Dials(); got != 2 {
		t.Fatalf("dials = %d, want 2 (original + stale redial)", got)
	}
}

// TestStreamClientDoT: the same reuse semantics over TLS.
func TestStreamClientDoT(t *testing.T) {
	cert, err := SelfSignedCert("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert.Leaf)

	srv := NewServer(Config{Handler: echoHandler(nil)})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	t.Cleanup(stop)
	go srv.ServeDoT(ctx, l, &tls.Config{Certificates: []tls.Certificate{cert}})

	c := &StreamClient{
		Addr:      l.Addr().String(),
		TLSConfig: &tls.Config{RootCAs: pool, ServerName: "127.0.0.1"},
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		q := dnswire.NewQuery(uint16(i+1), dnswire.MustName("a.example"), dnswire.TypeA)
		if _, err := c.Query(context.Background(), q); err != nil {
			t.Fatalf("DoT query %d: %v", i, err)
		}
	}
	if got := c.Dials(); got != 1 {
		t.Fatalf("5 DoT queries cost %d dials (and TLS handshakes), want 1", got)
	}
}

// TestStreamClientConcurrent: concurrent callers serialize on the one
// connection without racing or dialing extra sockets.
func TestStreamClientConcurrent(t *testing.T) {
	addr, _, _, _ := startTCP(t, Config{Handler: echoHandler(nil)})
	c := &StreamClient{Addr: addr}
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := dnswire.NewQuery(uint16(g*100+i+1), dnswire.MustName("a.example"), dnswire.TypeA)
				if _, err := c.Query(context.Background(), q); err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Dials(); got != 1 {
		t.Fatalf("80 concurrent queries cost %d dials, want 1", got)
	}
}

// TestStreamClientClosed: Query after Close fails fast.
func TestStreamClientClosed(t *testing.T) {
	addr, _, _, _ := startTCP(t, Config{Handler: echoHandler(nil)})
	c := &StreamClient{Addr: addr}
	if _, err := c.Query(context.Background(), dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Query(context.Background(), dnswire.NewQuery(2, dnswire.MustName("a.example"), dnswire.TypeA)); err != ErrClientClosed {
		t.Fatalf("query after Close: %v, want ErrClientClosed", err)
	}
}
