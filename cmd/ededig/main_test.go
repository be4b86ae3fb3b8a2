package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// expiredServer answers every query SERVFAIL with EDE 7 on a UDP socket of
// its own and returns the socket's address.
func expiredServer(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(transport.Config{Handler: netsim.HandlerFunc(func(_ context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.RCode = dnswire.RCodeServFail
		r.AddEDE(7, "signature expired")
		return r, nil
	})})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeUDP(ctx, conn) }()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return conn.LocalAddr().String()
}

// TestExitCodes: an answered query exits 0, a failed one 1, and a command
// line that cannot be honoured 2; each prints its own line.
func TestExitCodes(t *testing.T) {
	server := expiredServer(t)
	closed := func() string {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		return conn.LocalAddr().String()
	}()
	const name = "rrsig-exp-all.extended-dns-errors.com"
	for _, tc := range []struct {
		args []string
		code int
		out  string // a line of stdout
		err  string // part of stderr
	}{
		{nil, 2, "", "usage: ededig [flags] <name>"},
		{[]string{"a.example", "b.example"}, 2, "", "usage: ededig [flags] <name>"},
		{[]string{"-type", "AXFR", name}, 2, "", `unknown type "AXFR"`},
		{[]string{"-chaos", "loss=0.2", name}, 2, "", "-chaos requires -trace"},
		{[]string{"-trace", "-profile", "google", name}, 2, "", `unknown profile "google"`},
		{[]string{"-trace", "-chaos", "nonsense=1", name}, 2, "", "bad -chaos spec"},
		{[]string{"-server", closed, "-timeout", "300ms", name}, 1, "", "ededig: query failed: "},
		{[]string{"-server", server, name}, 0, ";; SERVER: " + server + " (UDP)", ""},
		{[]string{"-server", server, name}, 0, `;;   7 (Signature Expired) [dnssec-validation]: "signature expired"`, ""},
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
		if tc.out != "" && !strings.Contains("\n"+stdout.String(), "\n"+tc.out+"\n") {
			t.Errorf("%v: stdout has no line %q:\n%s", tc.args, tc.out, stdout.String())
		}
		if tc.out == "" && stdout.Len() != 0 {
			t.Errorf("%v: stdout should be empty, got %q", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.err) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.err)
		}
	}
}
