package transport

import (
	"bytes"
	"context"
	"encoding/base64"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
)

// servfailHandler answers everything SERVFAIL with an EDE 22 attached.
func servfailHandler() netsim.Handler {
	return netsim.HandlerFunc(func(ctx context.Context, q *dnswire.Message) (*dnswire.Message, error) {
		r := q.Reply()
		r.RCode = dnswire.RCodeServFail
		r.AddEDE(22, "no reachable authority")
		return r, nil
	})
}

func newDoHTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := NewServer(Config{Handler: bigAnswerHandler(2, "doh test")})
	ts := httptest.NewServer(srv.DoHHandler())
	t.Cleanup(ts.Close)
	return ts
}

func testQueryWire(t *testing.T, ttl uint32) []byte {
	t.Helper()
	q := dnswire.NewQuery(1, dnswire.MustName("doh.example"), dnswire.TypeA)
	_ = ttl
	wire, err := q.Pack()
	if err != nil {
		t.Fatalf("packing query: %v", err)
	}
	return wire
}

func TestDoHGetAndPost(t *testing.T) {
	ts := newDoHTestServer(t)
	wire := testQueryWire(t, 300)

	checkResponse := func(t *testing.T, resp *http.Response) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %s, want 200", resp.Status)
		}
		if ct := resp.Header.Get("Content-Type"); ct != dohContentType {
			t.Errorf("Content-Type = %q, want %q", ct, dohContentType)
		}
		// bigAnswerHandler answers with TTL 300: RFC 8484 §5.1 says the
		// HTTP freshness lifetime is the minimum answer TTL.
		if cc := resp.Header.Get("Cache-Control"); cc != "max-age=300" {
			t.Errorf("Cache-Control = %q, want max-age=300", cc)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		m, err := dnswire.Unpack(buf.Bytes())
		if err != nil {
			t.Fatalf("unpacking body: %v", err)
		}
		if m.RCode != dnswire.RCodeNoError || len(m.Answer) != 2 {
			t.Errorf("answer = %s with %d RRs, want NOERROR with 2", m.RCode, len(m.Answer))
		}
	}

	t.Run("get", func(t *testing.T) {
		resp, err := http.Get(ts.URL + DoHPath + "?dns=" + base64.RawURLEncoding.EncodeToString(wire))
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		checkResponse(t, resp)
	})
	t.Run("post", func(t *testing.T) {
		resp, err := http.Post(ts.URL+DoHPath, dohContentType, bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		checkResponse(t, resp)
	})
	t.Run("client-helper", func(t *testing.T) {
		for _, post := range []bool{false, true} {
			m, err := QueryDoH(context.Background(), nil, ts.URL+DoHPath,
				dnswire.NewQuery(2, dnswire.MustName("doh.example"), dnswire.TypeA), post)
			if err != nil {
				t.Fatalf("QueryDoH(post=%t): %v", post, err)
			}
			if len(m.Answer) != 2 {
				t.Errorf("QueryDoH(post=%t) answers = %d, want 2", post, len(m.Answer))
			}
		}
	})
}

func TestDoHErrors(t *testing.T) {
	ts := newDoHTestServer(t)
	wire := testQueryWire(t, 300)

	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"missing-dns-param", func() (*http.Response, error) {
			return http.Get(ts.URL + DoHPath)
		}, http.StatusBadRequest},
		{"bad-base64", func() (*http.Response, error) {
			return http.Get(ts.URL + DoHPath + "?dns=!!!not-base64!!!")
		}, http.StatusBadRequest},
		{"garbage-message", func() (*http.Response, error) {
			return http.Get(ts.URL + DoHPath + "?dns=" + base64.RawURLEncoding.EncodeToString([]byte("hi")))
		}, http.StatusBadRequest},
		{"wrong-content-type", func() (*http.Response, error) {
			return http.Post(ts.URL+DoHPath, "application/json", bytes.NewReader(wire))
		}, http.StatusUnsupportedMediaType},
		{"oversized-body", func() (*http.Response, error) {
			return http.Post(ts.URL+DoHPath, dohContentType, bytes.NewReader(make([]byte, dohMaxBodySize+1)))
		}, http.StatusRequestEntityTooLarge},
		{"bad-method", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodPut, ts.URL+DoHPath, bytes.NewReader(wire))
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatalf("request: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestDoHPaddedBase64 accepts (strips) padding some clients add despite
// RFC 8484 §6 requiring the unpadded form.
func TestDoHPaddedBase64(t *testing.T) {
	ts := newDoHTestServer(t)
	wire := testQueryWire(t, 300)
	padded := base64.URLEncoding.EncodeToString(wire) // with '=' padding
	if !strings.Contains(padded, "=") {
		t.Skip("query length produced no padding")
	}
	resp, err := http.Get(ts.URL + DoHPath + "?dns=" + padded)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %s, want 200 for padded base64url", resp.Status)
	}
}

// TestDoHCacheControlErrors: failures must not be HTTP-cacheable.
func TestDoHCacheControlErrors(t *testing.T) {
	srv := NewServer(Config{Handler: servfailHandler()})
	ts := httptest.NewServer(srv.DoHHandler())
	defer ts.Close()
	wire := testQueryWire(t, 0)
	resp, err := http.Post(ts.URL+DoHPath, dohContentType, bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s; DNS-level errors travel as 200 per RFC 8484 §4.2.1", resp.Status)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "max-age=0" {
		t.Errorf("Cache-Control = %q, want max-age=0 on SERVFAIL", cc)
	}
}

// TestCacheControlMinTTL: the freshness comes from the answer bytes as sent.
func TestCacheControlMinTTL(t *testing.T) {
	q := dnswire.NewQuery(1, dnswire.MustName("a.example"), dnswire.TypeA)
	m := q.Reply()
	m.Answer = []dnswire.RR{
		{Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.A{Addr: mustAddr("192.0.2.1")}},
		{Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 60, Data: dnswire.A{Addr: mustAddr("192.0.2.2")}},
	}
	if got := cacheControl(mustPack(t, m)); got != "max-age=60" {
		t.Errorf("cacheControl = %q, want max-age=60 (minimum TTL wins)", got)
	}
	m.RCode = dnswire.RCode(16) // BADVERS: NOERROR in the header, not in the OPT
	if got := cacheControl(mustPack(t, m)); got != "max-age=0" {
		t.Errorf("cacheControl with an extended RCODE = %q, want max-age=0", got)
	}
	m.RCode = dnswire.RCodeNoError
	m.Answer = nil
	if got := cacheControl(mustPack(t, m)); got != "max-age=0" {
		t.Errorf("cacheControl with no answers = %q, want max-age=0", got)
	}
	if got := cacheControl([]byte{0, 1, 0x80}); got != "max-age=0" {
		t.Errorf("cacheControl of a short message = %q, want max-age=0", got)
	}
}
