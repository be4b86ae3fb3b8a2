package transport

import (
	"strings"
	"testing"
)

// TestParseEndpoint: each scheme, the bare form and reuseport parse to the
// door they name and print back in canonical form, and every malformed
// endpoint is refused with a reason.
func TestParseEndpoint(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Endpoint
		door string
		str  string // canonical form
	}{
		{"udp://127.0.0.1:5353", Endpoint{Scheme: "udp", Addr: "127.0.0.1:5353"}, "UDP", "udp://127.0.0.1:5353"},
		{"127.0.0.1:5353", Endpoint{Scheme: "udp", Addr: "127.0.0.1:5353"}, "UDP", "udp://127.0.0.1:5353"},
		{"[::1]:53", Endpoint{Scheme: "udp", Addr: "[::1]:53"}, "UDP", "udp://[::1]:53"},
		{"udp://127.0.0.1:0?reuseport=4", Endpoint{Scheme: "udp", Addr: "127.0.0.1:0", ReusePort: 4}, "UDP", "udp://127.0.0.1:0?reuseport=4"},
		{"tcp://127.0.0.1:5353", Endpoint{Scheme: "tcp", Addr: "127.0.0.1:5353"}, "TCP", "tcp://127.0.0.1:5353"},
		{"tls://localhost:8853", Endpoint{Scheme: "tls", Addr: "localhost:8853"}, "DoT", "tls://localhost:8853"},
		{"https://127.0.0.1:8443", Endpoint{Scheme: "https", Addr: "127.0.0.1:8443"}, "DoH", "https://127.0.0.1:8443/dns-query"},
		{"https://127.0.0.1:8443/dns-query", Endpoint{Scheme: "https", Addr: "127.0.0.1:8443"}, "DoH", "https://127.0.0.1:8443/dns-query"},
	} {
		got, err := ParseEndpoint(tc.in)
		if err != nil || got != tc.want || got.Door() != tc.door || got.String() != tc.str {
			t.Errorf("ParseEndpoint(%q) = %+v (%s, %s), %v; want %+v (%s, %s)", tc.in, got, got.Door(), got, err, tc.want, tc.door, tc.str)
		}
		if back, err := ParseEndpoint(got.String()); err != nil || back != got {
			t.Errorf("ParseEndpoint(%q) = %+v, %v; want it to read its own String back", got, back, err)
		}
	}

	for _, tc := range []struct{ in, why string }{
		{"quic://127.0.0.1:853", `unknown scheme "quic"`},
		{"doh://127.0.0.1:443", `unknown scheme "doh"`},
		{"udp://127.0.0.1", `"udp://127.0.0.1": want scheme://host:port`},
		{"127.0.0.1", `"udp://127.0.0.1": want scheme://host:port`},
		{"tcp://127.0.0.1:", "want scheme://host:port"},
		{"", "want scheme://host:port"},
		{"tcp://127.0.0.1:port", `invalid port ":port"`},
		{"tcp://127.0.0.1:5353?reuseport=2", "the one parameter is reuseport=N, on udp"},
		{"https://127.0.0.1:8443?reuseport=2", "the one parameter is reuseport=N, on udp"},
		{"udp://127.0.0.1:5353?workers=2", "the one parameter is reuseport=N, on udp"},
		{"udp://127.0.0.1:5353?reuseport=2&workers=2", "the one parameter is reuseport=N, on udp"},
		{"udp://127.0.0.1:5353?reuseport=0", `reuseport="0"`},
		{"udp://127.0.0.1:5353?reuseport=many", `reuseport="many"`},
		{"https://127.0.0.1:8443/resolve", `path "/resolve"`},
		{"tcp://127.0.0.1:5353/dns-query", `path "/dns-query"`},
		{"tls://user@127.0.0.1:853", "want scheme://host:port"},
	} {
		ep, err := ParseEndpoint(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("ParseEndpoint(%q) = %+v, %v; want an error mentioning %q", tc.in, ep, err, tc.why)
		}
	}
}
