package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/transport"
)

// syncBuffer is a bytes.Buffer the serving goroutines and the test share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// server is one edeserver run in the background.
type server struct {
	stdout, stderr syncBuffer
	cancel         context.CancelFunc
	exit           chan int
}

// start runs edeserver with args until the test cancels it.
func start(t *testing.T, args ...string) *server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{cancel: cancel, exit: make(chan int, 1)}
	go func() { s.exit <- run(ctx, args, &s.stdout, &s.stderr) }()
	t.Cleanup(func() {
		cancel()
		<-s.exit
	})
	return s
}

// await returns the first submatch of re in stdout once it is printed, and
// fails the test if the server exits first or nothing matches within a
// minute (startup signs the testbed's zones).
func (s *server) await(t *testing.T, re string) string {
	t.Helper()
	pat := regexp.MustCompile(re)
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if m := pat.FindStringSubmatch(s.stdout.String()); m != nil {
			return m[1]
		}
		select {
		case code := <-s.exit:
			s.exit <- code
			t.Fatalf("edeserver exited %d before printing %q:\n%s%s", code, re, s.stdout.String(), s.stderr.String())
		default:
		}
	}
	t.Fatalf("edeserver printed no %q within a minute:\n%s", re, s.stdout.String())
	return ""
}

// stop cancels the run (SIGINT in main) and returns its exit status.
func (s *server) stop(t *testing.T) int {
	t.Helper()
	s.cancel()
	select {
	case code := <-s.exit:
		s.exit <- code
		return code
	case <-time.After(30 * time.Second):
		t.Fatal("edeserver did not return after its context was cancelled")
		return -1
	}
}

// exited reports whether the run has returned.
func (s *server) exited() bool {
	select {
	case code := <-s.exit:
		s.exit <- code
		return true
	default:
		return false
	}
}

// get returns the body of a GET of url, failing the test on anything but 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s: %s", url, resp.Status, body)
	}
	return string(body)
}

// TestFlags pins the command line: each flag is a deployment setting or a
// behaviour someone selects. A tuning value every caller leaves at its
// default is a constant beside its one use.
func TestFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	var got []string
	for _, l := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(l, "  -") {
			got = append(got, strings.Fields(l)[0][1:])
		}
	}
	want := []string{
		"addr", "admin", "advertise", "cache-size", "chaos", "chaos-seed", "cluster", "doh",
		"hot-broadcast", "join", "no-wire-cache", "profile", "replica-id", "retries",
		"retry-budget", "reuseport", "tcp", "tcp-keepalive", "tls", "tls-cert", "tls-key", "trace-sample",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags = %v (%d), want %v (%d)", got, len(got), want, len(want))
	}
}

// TestUnhonourableCommandLines: a flag either takes effect or the command
// exits 2 saying why, before it builds the testbed or binds a socket.
func TestUnhonourableCommandLines(t *testing.T) {
	for _, tc := range []struct {
		args []string
		why  string
	}{
		{[]string{"-no-frontend"}, "flag provided but not defined"},
		{[]string{"-drain-grace", "1s"}, "flag provided but not defined"},
		{[]string{"-profile", "google"}, `unknown profile "google"`},
		{[]string{"-mode", "resolver"}, "flag provided but not defined"},
		{[]string{"-chaos", "nonsense=1"}, "-chaos:"},
		{[]string{"stray"}, `unexpected argument "stray"`},
		{[]string{"-cluster", "1", "-join", "http://127.0.0.1:9"}, "mutually exclusive"},
		{[]string{"-tls-cert", "c.pem", "-tls-key", "k.pem"}, "need a -tls or -doh listener"},
		{[]string{"-tls-key", "k.pem", "-tcp", "127.0.0.1:0"}, "need a -tls or -doh listener"},
		{[]string{"-tls", "127.0.0.1:0", "-tls-cert", "c.pem"}, "must be given together"},
		{[]string{"-trace-sample", "1"}, "-trace-sample needs -admin"},
		{[]string{"-replica-id", "r1"}, "describe a -join secondary"},
		{[]string{"-cluster", "1", "-advertise", "127.0.0.1:5301"}, "describe a -join secondary"},
		{[]string{"-hot-broadcast", "4"}, "-hot-broadcast tunes the -cluster primary"},
		{[]string{"-join", "http://127.0.0.1:9", "-hot-broadcast", "4"}, "-hot-broadcast tunes the -cluster primary"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.why) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, stderr.String(), tc.why)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: did work before refusing: %q", tc.args, stdout.String())
		}
	}
}

// TestServesUntilCancelled: a resolver on an ephemeral port answers a real
// datagram with the profile's EDE; its admin plane, every query traced,
// answers /healthz, exposes the frontend, resolver and netsim families on
// /metrics and keeps that query's trace, EDE and all, at /api/trace; and a
// cancelled context (SIGINT) drains it to exit 0.
func TestServesUntilCancelled(t *testing.T) {
	s := start(t, "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-trace-sample", "1")
	addr, admin := s.addrs(t)
	if body := get(t, admin+"/healthz"); !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz: %s", body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	q := dnswire.NewQuery(1, dnswire.MustName("rrsig-exp-all.extended-dns-errors.com"), dnswire.TypeA)
	resp, err := transport.QueryUDP(ctx, addr, q)
	if err != nil {
		t.Fatal(err)
	}
	if codes := resp.EDECodes(); resp.RCode != dnswire.RCodeServFail || !slices.Contains(codes, 7) {
		t.Errorf("expired signatures answered %s with EDEs %v, want SERVFAIL with EDE 7 (Signature Expired)", resp.RCode, codes)
	}
	metrics := get(t, admin+"/metrics")
	for _, fam := range []string{"edelab_frontend_queries_total", "edelab_resolver_resolutions_total", "edelab_netsim_queries_total"} {
		if !strings.Contains(metrics, "\n"+fam) {
			t.Errorf("/metrics lacks %s", fam)
		}
	}
	if trace := get(t, admin+"/api/trace?name=rrsig-exp-all"); !strings.Contains(trace, "EDE 7") {
		t.Errorf("/api/trace?name=rrsig-exp-all lacks EDE 7:\n%s", trace)
	}

	if code := s.stop(t); code != 0 {
		t.Errorf("exit %d after cancel: %s", code, s.stderr.String())
	}
}

// TestJoinChecksTheProfile: the profile decides the EDE set, so a secondary
// started with another -profile than the primary's refuses to join (it
// joined and answered with its own vendor's EDEs), and one with the same
// profile joins and, cancelled, drains and leaves.
func TestJoinChecksTheProfile(t *testing.T) {
	primary := start(t, "-cluster", "1", "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0")
	admin := "http://" + primary.await(t, `admin plane on http://(\S+) `)

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-join", admin, "-profile", "bind", "-addr", "127.0.0.1:0"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "Cloudflare") || !strings.Contains(stderr.String(), "BIND") {
		t.Errorf("-profile bind secondary: exit %d, stderr %q; want exit 1 naming Cloudflare and BIND", code, stderr.String())
	}
	if strings.Contains(stdout.String(), "joined cluster") {
		t.Errorf("-profile bind secondary joined:\n%s", stdout.String())
	}

	secondary := start(t, "-join", admin, "-replica-id", "r1", "-addr", "127.0.0.1:0")
	secondary.await(t, `(joined cluster at \S+ as "r1")`)
	if code := secondary.stop(t); code != 0 || !strings.Contains(secondary.stdout.String(), `replica "r1" drained and left the cluster`) {
		t.Errorf("secondary exit %d after cancel:\n%s%s", code, secondary.stdout.String(), secondary.stderr.String())
	}
}
