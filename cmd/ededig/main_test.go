package main

import (
	"bytes"
	"context"
	"crypto/tls"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// doors are the loopback addresses of a fake resolver's four transports.
type doors struct{ udp, tcp, dot, doh string }

// expiredServer runs a fake resolver on UDP, TCP, DoT and DoH (each TLS
// door with a self-signed certificate) until the test ends. It answers
// every query SERVFAIL with EDE 7, or NOERROR with EDE 7 when the query
// sets CD, as a validating resolver hands a CD client the bogus data; the
// EXTRA-TEXT names the transport the query came over. Its DoH endpoint also
// answers under /post-only/dns-query, which refuses GET.
func expiredServer(t *testing.T) doors {
	t.Helper()
	cert, err := transport.SelfSignedCert("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	tlsConf := &tls.Config{Certificates: []tls.Certificate{cert}}
	serve := func(via string) *transport.Server {
		return transport.NewServer(transport.Config{Handler: netsim.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
			r := q.Reply()
			r.RCode = dnswire.RCodeServFail
			if q.CheckingDisabled {
				r.RCode = dnswire.RCodeNoError
			}
			r.AddEDE(7, "signature expired over "+via)
			return r, nil
		})})
	}
	listen := func() net.Listener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcp, dot, doh := listen(), listen(), listen()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, serveFn := range []func() error{
		func() error { return serve("udp").ServeUDP(ctx, conn) },
		func() error { return serve("tcp").ServeTCP(ctx, tcp) },
		func() error { return serve("dot").ServeDoT(ctx, dot, tlsConf) },
		func() error {
			h := serve("doh").DoHHandler()
			mux := http.NewServeMux()
			mux.Handle(transport.DoHPath, h)
			mux.Handle("/post-only"+transport.DoHPath, http.StripPrefix("/post-only", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method != http.MethodPost {
					http.Error(w, "POST only", http.StatusMethodNotAllowed)
					return
				}
				h.ServeHTTP(w, r)
			})))
			srv := &http.Server{Handler: mux, TLSConfig: tlsConf}
			go func() {
				<-ctx.Done()
				srv.Close()
			}()
			return srv.ServeTLS(doh, "", "")
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveFn()
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	return doors{
		udp: conn.LocalAddr().String(),
		tcp: tcp.Addr().String(),
		dot: dot.Addr().String(),
		doh: "https://" + doh.Addr().String() + transport.DoHPath,
	}
}

// TestExitCodes: an answered query exits 0, a failed one 1, and a command
// line that cannot be honoured 2; each prints its own line. The transport
// flags pick the door the fake resolver names in its EXTRA-TEXT, -insecure
// is what lets a self-signed certificate through, -doh-post is what a
// POST-only endpoint accepts, and -cd and -cd-only set and clear their bits.
func TestExitCodes(t *testing.T) {
	srv := expiredServer(t)
	closed := func() string {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		return conn.LocalAddr().String()
	}()
	postOnly := strings.Replace(srv.doh, transport.DoHPath, "/post-only"+transport.DoHPath, 1)
	const name = "rrsig-exp-all.extended-dns-errors.com"
	ede7 := func(via string) string {
		return `;;   7 (Signature Expired) [dnssec-validation]: "signature expired over ` + via + `"`
	}
	for _, tc := range []struct {
		args []string
		code int
		out  string // the start of a line of stdout
		err  string // part of stderr
	}{
		{nil, 2, "", "usage: ededig [flags] <name>"},
		{[]string{"a.example", "b.example"}, 2, "", "usage: ededig [flags] <name>"},
		{[]string{"-type", "AXFR", name}, 2, "", `unknown type "AXFR"`},
		{[]string{"-chaos", "loss=0.2", name}, 2, "", "-chaos requires -trace"},
		{[]string{"-trace", "-profile", "google", name}, 2, "", `unknown profile "google"`},
		{[]string{"-trace", "-chaos", "nonsense=1", name}, 2, "", "bad -chaos spec"},
		{[]string{"-server", closed, "-timeout", "300ms", name}, 1, "", "ededig: query failed: "},
		{[]string{"-server", srv.udp, name}, 0, ";; SERVER: " + srv.udp + " (UDP)", ""},
		{[]string{"-server", srv.udp, name}, 0, ede7("udp"), ""},
		{[]string{"-server", srv.udp, name}, 0, ";; opcode: QUERY, status: SERVFAIL,", ""},
		{[]string{"-server", srv.udp, name}, 0, ";; EDNS0 udp=1232 version=0 do=true;", ""},
		{[]string{"-cd-only", "-server", srv.udp, name}, 0, ";; EDNS0 udp=1232 version=0 do=false;", ""},
		{[]string{"-cd", "-server", srv.udp, name}, 0, ";; opcode: QUERY, status: NOERROR,", ""},
		{[]string{"-tcp", "-server", srv.tcp, name}, 0, ";; SERVER: " + srv.tcp + " (TCP)", ""},
		{[]string{"-tcp", "-server", srv.tcp, name}, 0, ede7("tcp"), ""},
		{[]string{"-cd", "-tcp", "-server", srv.tcp, name}, 0, ";; opcode: QUERY, status: NOERROR,", ""},
		{[]string{"-cd", "-tcp", "-server", srv.tcp, name}, 0, ede7("tcp"), ""},
		{[]string{"-tls", "-insecure", "-server", srv.dot, name}, 0, ";; SERVER: " + srv.dot + " (DoT)", ""},
		{[]string{"-tls", "-insecure", "-server", srv.dot, name}, 0, ede7("dot"), ""},
		{[]string{"-tls", "-server", srv.dot, name}, 1, "", "certificate"},
		{[]string{"-doh", srv.doh, "-insecure", name}, 0, ";; SERVER: " + srv.doh + " (DoH)", ""},
		{[]string{"-doh", srv.doh, "-insecure", name}, 0, ede7("doh"), ""},
		{[]string{"-doh", srv.doh, "-insecure", "-doh-post", name}, 0, ede7("doh"), ""},
		{[]string{"-doh", postOnly, "-insecure", "-doh-post", name}, 0, ede7("doh"), ""},
		{[]string{"-doh", postOnly, "-insecure", name}, 1, "", "405 Method Not Allowed"},
		{[]string{"-doh", srv.doh, name}, 1, "", "certificate"},
		{[]string{"-trace", "-chaos", "loss=0.4", "-chaos-seed", "7", "valid.extended-dns-errors.com"}, 0, ";; effective seed: 7", ""},
		{[]string{"-trace", "-profile", "quad9", name}, 0, ";; RESOLUTION TRACE:", ""},
		// The trace names the conditions behind each code it attaches.
		{[]string{"-trace", "allow-query-none.extended-dns-errors.com"}, 0, "    · EDE 9 (DNSKEY Missing) attached ← condition dnskey-unobtainable", ""},
		{[]string{"-trace", "allow-query-none.extended-dns-errors.com"}, 0, "    · EDE 22 (No Reachable Authority) attached ← condition authorities-refused", ""},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d; stderr %q", tc.args, code, tc.code, stderr.String())
		}
		if tc.out != "" && !strings.Contains("\n"+stdout.String(), "\n"+tc.out) {
			t.Errorf("%v: stdout has no line starting %q:\n%s", tc.args, tc.out, stdout.String())
		}
		if tc.out == "" && stdout.Len() != 0 {
			t.Errorf("%v: stdout should be empty, got %q", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.err) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.err)
		}
	}
}
