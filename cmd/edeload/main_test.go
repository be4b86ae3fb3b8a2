package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/loadgen"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

func TestParseQnames(t *testing.T) {
	mix, err := parseQnames("a.example, b.example.")
	if err != nil || len(mix) != 2 {
		t.Fatalf("parseQnames: %v (%d names)", err, len(mix))
	}
	if _, err := parseQnames(""); err == nil {
		t.Error("empty mix accepted")
	}
}

// serveLoopback answers every query on a loopback UDP socket with h until
// the test ends, and returns the socket's address.
func serveLoopback(t *testing.T, h netsim.HandlerFunc) string {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go transport.NewServer(transport.Config{Handler: h}).ServeUDP(ctx, conn)
	return conn.LocalAddr().String()
}

// load runs edeload with args and -json into a temporary file, and returns
// its exit status and the summary it wrote.
func load(t *testing.T, args ...string) (int, loadgen.Result) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "load.json")
	var stdout, stderr bytes.Buffer
	code := run(append(args, "-json", out), &stdout, &stderr)
	var r loadgen.Result
	if b, err := os.ReadFile(out); err != nil || json.Unmarshal(b, &r) != nil {
		t.Fatalf("edeload %v exited %d and wrote no summary: %v\n%s", args, code, err, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "edeload: "+r.Server+" via "+r.Transport) {
		t.Errorf("edeload %v printed no text summary:\n%s", args, stdout.String())
	}
	return code, r
}

// TestRunAgainstLiveServer drives the whole closed loop against a real UDP
// front door for a fraction of a second and checks the summary is sane.
func TestRunAgainstLiveServer(t *testing.T) {
	addr := serveLoopback(t, func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.RecursionAvailable = true
		r.AddEDE(3, "load test")
		return r, nil
	})
	code, r := load(t, "-server", "udp://"+addr, "-qnames", "a.example,b.example",
		"-concurrency", "2", "-duration", "300ms", "-warmup", "50ms")
	if code != 0 || r.Responses == 0 || r.AchievedQPS <= 0 {
		t.Fatalf("exit %d, no throughput measured: %+v", code, r)
	}
	if r.Timeouts != 0 || r.Errors != 0 {
		t.Errorf("timeouts=%d errors=%d against a loopback echo server", r.Timeouts, r.Errors)
	}
	if r.WithEDE != r.Responses {
		t.Errorf("with-EDE = %d of %d responses, every reply carried EDE 3", r.WithEDE, r.Responses)
	}
	if r.LatencyUS.P50 <= 0 || r.LatencyUS.Max < r.LatencyUS.P50 {
		t.Errorf("implausible latency summary: %+v", r.LatencyUS)
	}
}

// TestJSONToStdout: with -json - stdout is the JSON summary alone, so a
// script can parse it; the text summary goes to stderr.
func TestJSONToStdout(t *testing.T) {
	addr := serveLoopback(t, func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return q.Reply(), nil
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-server", addr, "-concurrency", "1", "-duration", "50ms", "-warmup", "0s", "-json", "-"}, &stdout, &stderr)
	var r loadgen.Result
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		t.Fatalf("stdout of -json - does not parse: %v\n%s", err, stdout.String())
	}
	if code != 0 || r.Responses == 0 || r.Server != addr {
		t.Errorf("exit %d, summary %+v; want 0 and responses from %s", code, r, addr)
	}
	if !strings.HasPrefix(stderr.String(), "edeload: "+addr+" via udp") {
		t.Errorf("stderr lacks the text summary: %q", stderr.String())
	}
}

// TestRunPaced: with a 200 qps target the achieved rate must land well
// under the unpaced loopback rate — pacing actually throttles.
func TestRunPaced(t *testing.T) {
	addr := serveLoopback(t, func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		return q.Reply(), nil
	})
	code, r := load(t, "-server", addr, "-qnames", "a.example", "-qps", "200",
		"-concurrency", "2", "-duration", "500ms", "-warmup", "0s")
	if r.AchievedQPS > 400 {
		t.Errorf("achieved %.0f qps with a 200 qps target; pacing is not throttling", r.AchievedQPS)
	}
	if code != 0 || r.Responses == 0 {
		t.Fatalf("paced run exited %d with %d responses", code, r.Responses)
	}
}

// TestExitCodes: a command line edeload cannot honour exits 2 before any
// load, a run that got no response exits 1, and -h exits 0.
func TestExitCodes(t *testing.T) {
	// A bound socket nobody reads: every query times out.
	silent, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	for _, tc := range []struct {
		args []string
		code int
		err  string // part of stderr
	}{
		{[]string{"-h"}, 0, "-qnames"},
		{[]string{"-workers", "8"}, 2, "flag provided but not defined"},
		{[]string{"-duration", "soon"}, 2, "invalid value"},
		{[]string{"-qnames", " , "}, 2, "-qnames: empty mix"},
		{[]string{"-qnames", "a..example"}, 2, `-qnames "a..example"`},
		{[]string{"-qtype", "MX"}, 2, `unknown -qtype "MX"`},
		{[]string{"-transport", "tcp"}, 2, "flag provided but not defined"},
		{[]string{"-server", "https://127.0.0.1:8443"}, 2, "-server: edeload loads a udp://host:port or tcp://host:port door"},
		{[]string{"-server", "udp://127.0.0.1:5353?reuseport=2"}, 2, "-server: edeload loads a udp://host:port or tcp://host:port door"},
		{[]string{"-server", "quic://127.0.0.1:853"}, 2, `-server: endpoint "quic://127.0.0.1:853": unknown scheme`},
		{[]string{"-server", "127.0.0.1"}, 2, "want scheme://host:port"},
		{[]string{"-keepalive"}, 2, "-keepalive needs a tcp:// server"},
		{[]string{"stray"}, 2, `unexpected argument "stray"`},
		{[]string{"-concurrency", "0"}, 2, "-concurrency 0: need at least one worker"},
		{[]string{"-concurrency", "-3"}, 2, "-concurrency -3: need at least one worker"},
		{[]string{"-duration", "0s"}, 2, "both must be positive"},
		{[]string{"-timeout", "-1s"}, 2, "both must be positive"},
		{[]string{"-qps", "-100"}, 2, "neither may be negative"},
		{[]string{"-qps", "NaN"}, 2, "neither may be negative"},
		{[]string{"-warmup", "-1s"}, 2, "neither may be negative"},
		{[]string{"-server", silent.LocalAddr().String(), "-concurrency", "1", "-duration", "100ms",
			"-warmup", "0s", "-timeout", "50ms"}, 1, "no responses from udp://" + silent.LocalAddr().String()},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.err) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d mentioning %q", tc.args, code, stderr.String(), tc.code, tc.err)
		}
		if code == 2 && stdout.Len() != 0 {
			t.Errorf("%v: ran before refusing: %q", tc.args, stdout.String())
		}
	}
}
