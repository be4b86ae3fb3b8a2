package transport

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
)

// respKeepalive extracts the edns-tcp-keepalive TIMEOUT from a response.
func respKeepalive(m *dnswire.Message) (uint16, bool) {
	if m.OPT == nil {
		return 0, false
	}
	for _, o := range m.OPT.Options {
		if ka, ok := o.(dnswire.TCPKeepaliveOption); ok && ka.HasTimeout {
			return ka.Timeout, true
		}
	}
	return 0, false
}

// TestTCPKeepalive: the server advertises its configured idle timeout on
// stream responses to a RequestKeepalive client, which keeps using the one
// connection.
func TestTCPKeepalive(t *testing.T) {
	addr, _, _, _ := startTCP(t, Config{
		Handler:      echoHandler(nil),
		TCPKeepalive: 2 * time.Second,
	})
	c := &StreamClient{Addr: addr, RequestKeepalive: true}
	defer c.Close()

	ctx := context.Background()
	q := dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA)
	resp, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.OPT.Options) != 0 {
		t.Error("Query mutated the caller's message to add the keepalive option")
	}
	if units, ok := respKeepalive(resp); !ok || units != 20 {
		t.Fatalf("response keepalive = %d/%t, want TIMEOUT 20 (2s in 100ms units)", units, ok)
	}
	if _, err := c.Query(ctx, dnswire.NewQuery(2, dnswire.MustName("b.example"), dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	if got := c.Dials(); got != 1 {
		t.Errorf("dials = %d, want 1 (a TIMEOUT above 0 keeps the connection)", got)
	}
}

// TestTCPKeepaliveNotAdvertised: without TCPKeepalive configured the server
// stays silent, and the client keeps its connection all the same.
func TestTCPKeepaliveNotAdvertised(t *testing.T) {
	addr, _, _, _ := startTCP(t, Config{Handler: echoHandler(nil)})
	c := &StreamClient{Addr: addr, RequestKeepalive: true}
	defer c.Close()

	ctx := context.Background()
	resp, err := c.Query(ctx, dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := respKeepalive(resp); ok {
		t.Error("server advertised keepalive without TCPKeepalive configured")
	}
	if _, err := c.Query(ctx, dnswire.NewQuery(2, dnswire.MustName("b.example"), dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	if got := c.Dials(); got != 1 {
		t.Errorf("dials = %d, want 1", got)
	}
}

// TestTCPKeepaliveTimeoutZero: a server answering with TIMEOUT 0 wants the
// connection back (RFC 7828 §3.2.2), so the client closes it after the
// answer and the next query dials again.
func TestTCPKeepaliveTimeoutZero(t *testing.T) {
	addr, _, _, _ := startTCP(t, Config{Handler: netsim.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.OPT.Options = append(r.OPT.Options, dnswire.TCPKeepaliveOption{HasTimeout: true})
		return r, nil
	})})
	c := &StreamClient{Addr: addr, RequestKeepalive: true}
	defer c.Close()

	ctx := context.Background()
	for i := range 2 {
		resp, err := c.Query(ctx, dnswire.NewQuery(uint16(i+1), dnswire.MustName("a.example"), dnswire.TypeA))
		if err != nil {
			t.Fatal(err)
		}
		if units, ok := respKeepalive(resp); !ok || units != 0 {
			t.Fatalf("response keepalive = %d/%t, want TIMEOUT 0", units, ok)
		}
		c.mu.Lock()
		open := c.conn != nil
		c.mu.Unlock()
		if open {
			t.Fatalf("query %d: the connection stayed cached after TIMEOUT 0", i+1)
		}
	}
	if got := c.Dials(); got != 2 {
		t.Errorf("dials = %d, want 2 (one per query)", got)
	}
}

// TestTCPKeepaliveNeverOnUDP: RFC 7828 §3.4 forbids the option over UDP
// even when the server is configured to advertise it on streams.
func TestTCPKeepaliveNeverOnUDP(t *testing.T) {
	addr, _ := startUDP(t, Config{
		Handler:      bigAnswerHandler(1, ""),
		TCPKeepalive: 2 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := QueryUDP(ctx, addr, dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := respKeepalive(resp); ok {
		t.Error("edns-tcp-keepalive leaked onto a UDP response")
	}
}

// TestKeepaliveFrameBound: the slow path appends the keepalive option to the
// packed response, so a response that fits the 64 KiB frame only without
// the option's 6 bytes is an error, counted like any other, while one that
// fits with it goes out whole. The bytes are those of packing a response
// whose OPT already carries the option.
func TestKeepaliveFrameBound(t *testing.T) {
	srv := NewServer(Config{Handler: echoHandler(nil), TCPKeepalive: 2 * time.Second})
	c := &streamConn{s: srv, transport: TransportTCP}
	q := dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA)
	// sized returns a reply whose packed message is n bytes long.
	sized := func(n int) *dnswire.Message {
		r := q.Reply()
		r.AddEDE(3, "")
		base, err := r.Pack()
		if err != nil {
			t.Fatal(err)
		}
		r = q.Reply()
		r.AddEDE(3, strings.Repeat("x", n-len(base)))
		return r
	}

	fits := sized(0xFFFF - keepaliveOptLen)
	got, ok := c.appendFramed(fits, nil)
	if !ok || len(got) != 2+0xFFFF {
		t.Fatalf("a response that fits the frame with the option: %d bytes framed, ok %t; want %d", len(got), ok, 2+0xFFFF)
	}
	withOpt := *fits
	opt := *fits.OPT
	opt.Options = append(opt.Options[:len(opt.Options):len(opt.Options)], dnswire.TCPKeepaliveOption{HasTimeout: true, Timeout: 20})
	withOpt.OPT = &opt
	want, err := withOpt.AppendStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("framed %d bytes differ from packing the option in (%d bytes)", len(got), len(want))
	}

	errs := srv.m.errors[TransportTCP].Load()
	if _, ok := c.appendFramed(sized(0xFFFF-keepaliveOptLen+1), []byte{1, 2}); ok {
		t.Fatal("a response the option pushes past the frame bound was framed")
	}
	if got := srv.m.errors[TransportTCP].Load() - errs; got != 1 {
		t.Fatalf("errors counted = %d, want 1", got)
	}
}
